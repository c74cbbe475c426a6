"""Error-disturbance uncertainty relations in Faraday-type spin measurements.

A spin-1/2 system is measured indirectly through the Faraday rotation it
imprints on a polarized light meter (coherent or polarization-squeezed),
U = exp(-i g sigma_z (x) Sz).  The package simulates the process exactly
on a truncated two-mode Fock space, evaluates the closed-form square
error / square disturbance expressions, and checks the
Heisenberg-Arthurs-Kelly, Ozawa and (tight) Branciard-Ozawa relations.

Import the submodules directly (``faraday_edr.faraday``, ``.edr``,
``.relations``, ...); the package itself loads none of them.
"""

__version__ = "0.1.0"
