"""Exact crossed-product algebras over finite-dimensional Hopf algebras.

Everything is computed in exact arithmetic (rationals or a prime field)
from structure constants: the catalog of small Hopf algebras, the smash
and crossed product builders, the explicit isomorphisms between the
four-slot product algebras, and the Hopf-bimodule verification suites.
"""

from .fields import PrimeField, QQ, Rationals
from .report import CheckMode, CheckReport, Violation
from .algebra import (AlgebraData, CoalgebraData, HopfAlgebraData,
                      antipode_inverse, check_algebra_axioms,
                      check_coalgebra_axioms, check_hopf_axioms, dual_hopf,
                      op_algebra, tensor_algebra, tensor_hopf,
                      trace_form_radical, variant)
from .actions import (ActionData, CoactionData, bicomodule_to_module,
                      build_bimodule_algebra, check_bimodule_algebra,
                      check_module_algebra, check_module_axioms,
                      comodule_algebra_map, regular_actions, trivial_action)
from .crossed import (AlgebraHandle, StandardTriple, build_xyz,
                      check_handle_axioms, diagonal_crossed, left_smash,
                      materialize, right_smash, smash_handles, twisted_tensor,
                      two_sided_crossed)
from .isos import (build_iso, composition_identity, verify_algebra_morphism,
                   verify_mutually_inverse)
from .bimodules import (HopfBimoduleData, TripleModuleData,
                        check_hopf_bimodule, check_module_over_handle,
                        derived_action, diagonal_module_condition,
                        example_bimodule, triple_from_bimodule,
                        triple_module_roundtrip, verify_action_correspondence,
                        verify_f_correspondence)
from .catalog import CatalogSpec, catalog_hopf, catalog_named, parse_catalog_spec
from .linalg import LinearMap
