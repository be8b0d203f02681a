"""Benchmark harness: measurement runners for every table and figure in the
paper's evaluation, plus the ablations DESIGN.md calls out.

* :mod:`repro.bench.skeleton` — what an experiment declares (one
  ``Experiment`` entry; text and JSON are derived from it) and the
  measurement scaffolding the runners share;
* :mod:`repro.bench.harness` — the result types and runners (Table 1 power
  test, Figure 2 recovery sweep, the ablations and experiments);
* :mod:`repro.bench.reporting` — the ``EXPERIMENTS`` registry and a
  ``python -m repro.bench.reporting`` CLI over it.

The ``benchmarks/bench_*.py`` pytest files assert the shape of what these
runners measure (CI's ``bench-smoke``); the paper's two headline ratios are
gated on real files and real TCP by ``benchmarks/e2e``.
"""
