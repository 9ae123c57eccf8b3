"""Physical constants used throughout, in SI units.

Values are the CODATA 2022 recommended values; c, h and k are exact in
the 2019 SI.  They are typed in rather than read from a library, so that
outputs do not depend on which CODATA release an installed package ships.
"""

SPEED_OF_LIGHT = 299792458.0
PLANCK = 6.62607015e-34
BOLTZMANN = 1.380649e-23
BOHR_MAGNETON = 9.2740100657e-24
ATOMIC_MASS = 1.66053906892e-27

TORR_TO_PA = 101325.0 / 760.0
