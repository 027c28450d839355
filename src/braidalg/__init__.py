"""braidalg: exact symbolic verification for phase-braided graded *-algebras.

Subpackages:

* ``scalars``  - Laurent ring in a formal unit-modulus phase over the
  rationals with formal square roots, optional root-of-unity specialization,
  and ``parse_scalar``, the one expression reader;
* ``algebra``  - graded letters on tensor legs and the one sparse word
  polynomial: one leg (graded), n braided legs, or a plain tensor of blocks
  of braided legs; matrices: ``mat_mul``, ``adjoint``, ``diag_matrix``,
  ``mat_identity``, the phase-dressed ``conjugate_matrix``, ``row_reduce``;
* ``braided``  - moving polynomials between leg structures: placing legs
  in a larger product, the flattening map, leg-1 state application;
* ``simplify`` - presentations and their relation kinds, each rendering and
  compiling itself; ``Presentation.rules``, the one compiled rule set; the
  relation-driven reduction and verification engine;
* ``graphalg`` - finite graphs, spectral radius, the equilibrium state;
* ``uqf``      - the braided unitary presentation, its bosonization, the
  one-vertex-graph action and the proposition-level suites;
* ``fusion``   - the free fusion ring on a charge and a two-letter monoid;
* ``cli``      - the batch command-line front end.
"""

from .scalars import FORMAL, Scalar, ZetaSpec, zeta, sqrt
from .algebra import GradedPoly, Letter, adjoint, conjugate_matrix, diag_matrix, mat_mul
from .braided import apply_state_pairs, embed, psi_flatten
from .simplify import RelationSet, VerificationReport, verify_identity
from .graphalg import GraphData, KmsData, check_dagger, kms_eval, vertex_matrix
from .fusion import Irrep, Word, conjugate_irrep, dimension, fuse, word_bar

__version__ = "0.1.0"
