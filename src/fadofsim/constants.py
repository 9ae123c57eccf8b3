"""Physical constants used throughout, taken from scipy.constants."""

from scipy.constants import (
    c as SPEED_OF_LIGHT,
    h as PLANCK,
    k as BOLTZMANN,
    physical_constants,
)

BOHR_MAGNETON = physical_constants["Bohr magneton"][0]
ATOMIC_MASS = physical_constants["atomic mass constant"][0]

TORR_TO_PA = 101325.0 / 760.0
