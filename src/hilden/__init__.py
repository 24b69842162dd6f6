"""Exact computation with block-symmetric braid subgroups.

The package decides braid-word equality through Garside normal forms, decides
marked-sphere mapping-class equality through free-group automorphisms, builds
and cross-verifies the finite presentations of the block (Hilden-type)
subgroups, and computes their integer first homology.
"""

from .words import (Alphabet, Word, conjugate, cyclically_reduce, format_word,
                    identity, invert, multiply, parse_word, reduce, substitute)
from .perms import (Perm, SubgroupTable, compose, enumerate_subgroup, format_cycles,
                    generated_subgroup, identity_perm, inverse, is_liftable,
                    is_parity_preserving, is_parity_reversing, parse_cycles,
                    perm_from_images, pi_to_Z2, Pi_to_Snp1, preserves_blocks,
                    psi_of_braid_word)
from .braids import (BraidWord, GarsideNF, braid_identity, braid_is_trivial,
                     braid_word, braids_equal, build_generator, delta,
                     exponent_sum, format_braid_word, full_twist, nf_inverse,
                     nf_multiply, nf_to_braid_word, normal_form, parse_braid_text,
                     perm_of_braid, sigma_alphabet)
from .spheremcg import (ARTIN_CONVENTION, DEFAULT_BUDGET, BudgetExceededError,
                        FreeAuto, artin_action, closes_at, compose_autos, conjugation_auto,
                        identity_auto, induced_perm_of_action, is_inner,
                        is_liftable_class, mcg_equal, sphere_trivial, x_alphabet)
from .presentations import (Presentation, VerificationReport, VerifyRow,
                            braid_assignment, build_LH, build_PH, build_PH1,
                            build_SH, build_VW, build_intermediate_LH,
                            build_presentation, build_prop_LH, perm_assignment,
                            presentation_from_json, verify, verify_lemma_identities)
from .homology import (AbelianInvariants, H1Result, SNFResult, expected_h1,
                       h1_generators_report, h1_of_presentation, matrix_mul,
                       relator_matrix, smith_normal_form)

__version__ = "0.1.0"
