"""The repo benchmark harness: workloads, correctness checks and the traced ledger.

Everything here drives the program from outside, through its public surface
(the scenario registry, :class:`~repro.session.Session`, the bundle writer
and an in-process :class:`~repro.service.ReproService`).  The only program
internals it touches are the per-layer hooks of :mod:`harness.ledger`, which
exist in traced runs only and degrade to "absent" when a target is missing.
"""
