"""Analytic quantum-Langevin engine for vibronic cavity-polariton spectroscopy.

Computes linear absorption, heterodyne-detected two-dimensional coherent
spectra and pump-probe spectra of N identical vibronically coupled molecules
in a lossy single-mode cavity, with brute-force oracles for every fast path.

Each public name is imported from the module that defines it: ``errors``,
``model``, ``grids``, ``propagator``, ``vibrations`` or ``signals``.  So
``import polariton2dcs`` loads no submodule.
"""

__version__ = "0.1.0"
