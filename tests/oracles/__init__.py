"""One equivalence oracle for every fleet-level execution mode.

One scenario strategy (:mod:`oracles.scenarios`), one run record and its
runners (:mod:`oracles.records`), one comparator (:mod:`oracles.compare`),
the conservation invariants every record satisfies
(:mod:`oracles.invariants`), and the registry of ``(name, reference,
variant)`` entries, each with one planted mutation (:mod:`oracles.registry`).
"""
