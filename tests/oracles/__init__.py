"""One equivalence oracle for every fleet-level execution mode.

One scenario strategy (:mod:`oracles.scenarios`), one run record and its
runners (:mod:`oracles.records`), the repository's one comparator
(``first_difference`` in ``tools/parity.py``, which the parity gate runs too),
the conservation invariants every record satisfies
(:mod:`oracles.invariants`), and the registry of ``(name, reference,
variant)`` entries, each with one planted mutation (:mod:`oracles.registry`).
"""
