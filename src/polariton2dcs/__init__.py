"""Analytic quantum-Langevin engine for vibronic cavity-polariton spectroscopy.

Computes linear absorption, heterodyne-detected two-dimensional coherent
spectra and pump-probe spectra of N identical vibronically coupled molecules
in a lossy single-mode cavity, with brute-force oracles for every fast path.

Each public name is imported from its home module on first access, so
``import polariton2dcs`` loads no submodule and a process pays only for the
layers it uses.
"""

__version__ = "0.1.0"

# each public name and its home module, in the order of __all__
_HOMES = {
    "DegenerateBright": "errors",
    "DivergentTransform": "errors",
    "MalformedGrid": "errors",
    "NegativeTime": "errors",
    "NegativeWaitingTime": "errors",
    "ParameterError": "errors",
    "TooLarge": "errors",
    "TruncationWarning": "errors",
    "RAD_PER_CM_FS": "model",
    "SystemParams": "model",
    "derived_quantities": "model",
    "time_phase": "model",
    "validate_params": "model",
    "DynamicsMatrix": "propagator",
    "ModeDecomposition": "propagator",
    "build_matrix": "propagator",
    "decompose": "propagator",
    "expm_propagator": "propagator",
    "fourier_conj_entries": "propagator",
    "fourier_entries": "propagator",
    "matrix_exp": "propagator",
    "propagator_G": "propagator",
    "propagator_fourier": "propagator",
    "quadrature_fourier": "propagator",
    "Axis": "grids",
    "IndexClass": "signals",
    "SpectrumGrid": "grids",
    "index_classes": "signals",
    "linear_absorption": "signals",
    "peak_ratios": "signals",
    "pump_probe": "signals",
    "pump_probe_direct": "signals",
    "pump_probe_prefactor": "signals",
    "pump_probe_slices": "signals",
    "pump_probe_slices_direct": "signals",
    "pump_probe_values": "signals",
    "twod_signal": "signals",
    "twod_signal_direct": "signals",
    "twod_signal_point": "signals",
    "twod_prefactor": "signals",
    "twod_values": "signals",
    "TimeQuadruple": "vibrations",
    "VibKernel": "vibrations",
    "fock_correlator": "vibrations",
    "four_point_correlator": "vibrations",
    "franck_condon": "vibrations",
    "franck_condon_cutoff": "vibrations",
    "franck_condon_weights": "vibrations",
    "kernel_from_params": "vibrations",
    "mode_commutator": "vibrations",
    "phonon_shift": "vibrations",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # from .<home> import <name>; unlike importlib.import_module, -X importtime sees it
    value = globals()[name] = getattr(__import__(f"{__name__}.{home}", fromlist=(name,)), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
