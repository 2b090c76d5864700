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

__version__ = "0.1.0"
