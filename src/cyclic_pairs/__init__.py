"""Linear intersection pairs of cyclic codes over finite fields.

Construction, analysis and verification of pairs of cyclic codes with a
prescribed intersection dimension: finite-field and polynomial
arithmetic, cyclotomic cosets, factorization of x^n - 1, exact minimum
distances, existence tests, pair constructions (including Reed-Solomon
MDS pairs) and a bundled corpus of optimal binary pairs.
"""

from cyclic_pairs.codes import (DEFAULT_CAP, CyclicCode, DistanceReport,
                                EnumerationCapExceeded)
from cyclic_pairs.constructions import (ConstructionResult, DivisibilityError,
                                        construct_L, construct_even_2s,
                                        construct_mds,
                                        construct_quadratic_2s,
                                        construct_repeated,
                                        construct_s_intersection,
                                        construct_zero_intersection)
from cyclic_pairs.cyclotomic import (CosetPartition, additive_order,
                                     coset_count, coset_of, coset_partition,
                                     euler_phi, mult_order)
from cyclic_pairs.factorization import (Factorization, FactorEntry,
                                        factor_xn1, minimal_poly,
                                        root_of_unity, split_length)
from cyclic_pairs.fields import (Field, FieldMismatchError, field_from_order,
                                 make_field)
from cyclic_pairs.pairs import (ExistenceWitness, PairReport, exists_ell,
                                hull_dim, pair_analyze, small_ell_predicate)
from cyclic_pairs.poly import Polynomial, PolyParseError, parse_poly, xn_minus_1
from cyclic_pairs.tables import (SearchResult, TableRow, VerificationOutcome,
                                 all_divisors, load_table_rows, search_pairs,
                                 verify_table)

__version__ = "0.1.0"
