"""Built-in spin systems.

Gyromagnetic ratios are relative to 13C (so carbon is 1.4048 only when
quoted in the raw 1e7 rad/(s T) units used here; what matters downstream
are ratios and signs).
"""

from .errors import InputError, clipped
from .core import SpinSystem

PRESETS: dict[str, SpinSystem] = {
    # spins 13C, 1H
    "chloroform": SpinSystem(gamma=(1.4048, 5.5857), j_hz=((0.0, 214.95), (214.95, 0.0))),
    "homonuclear-2": SpinSystem(gamma=(1.0, 1.0)),
    "homonuclear-3": SpinSystem(gamma=(1.0, 1.0, 1.0)),
    # spins 13C, 13C, 1H
    "hetero-3": SpinSystem(gamma=(1.4048, 1.4048, 5.5857)),
}


def get_preset(name: str) -> SpinSystem:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise InputError(f"unknown preset {clipped(name)}; known presets: {known}") from None
