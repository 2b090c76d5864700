"""ftdesigns: exact tools for flag-transitive 2-designs.

Modules:
    arith          p-parts, cyclotomic values, divisors, prime powers
    design         parameter algebra and pruning predicates
    perm           permutation groups with deterministic stabilizer chains
    incidence      incidence structures and the verification battery
    constructions  concrete designs and the bundled catalog
    elimination    arithmetic case-elimination reports
    cli            command-line front end
"""

from .arith import PrimePower, cyclotomic, divisors, ppart
from .design import (Parameters, complete_parameters, embeds_symmetric,
                     enumerate_candidates, is_admissible)
from .incidence import IncidenceStructure, verify_2design
from .perm import Permutation, PermutationGroup, build_group

__all__ = [
    "PrimePower", "cyclotomic", "divisors", "ppart",
    "Parameters", "complete_parameters", "embeds_symmetric",
    "enumerate_candidates", "is_admissible",
    "IncidenceStructure", "verify_2design",
    "Permutation", "PermutationGroup", "build_group",
]

__version__ = "0.1.0"
