"""Quantization calculi on compact groups at desk scale.

Subpackages:
  groups      irreps, group elements, Haar quadratures (U(1), SU(2))
  wigner      Wigner D-matrices, angular momentum operators
  theta       Jacobi theta_3 and its z-derivative
  heat        heat kernels, coherent-state overlaps, resolution integrals
  peterweyl   truncated Peter-Weyl spaces and operator plumbing
  symbols     global Kohn-Nirenberg / Weyl matrix-symbol calculus
  localcalc   epsilon-scaled local calculus on T*G, semiclassical fits
  orbits      Stratonovich-Weyl calculus on SU(2) coadjoint orbits
  bohr        pseudo-differential calculus on rational Bohr lattices
  u1smoothing U(1)-equivariant Berezin / Kohn-Nirenberg smoothing
  cli         command-line front end
"""

__version__ = "0.1.0"
