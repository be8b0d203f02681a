"""Benchmark harness: measurement runners for every table and figure in the
paper's evaluation, plus the ablations DESIGN.md calls out.

* :mod:`repro.bench.skeleton` — what an experiment declares (one
  ``Experiment`` entry; text and JSON are derived from it) and the
  measurement scaffolding the runners share;
* :mod:`repro.bench.harness` — the result types and runners (Table 1 power
  test, Figure 2 recovery sweep, the ablations and experiments);
* :mod:`repro.bench.reporting` — the ``EXPERIMENTS`` registry and a
  ``python -m repro.bench.reporting`` CLI over it.

The pytest-benchmark suites in ``benchmarks/`` are thin wrappers over these
runners, so the same code regenerates the artifacts interactively and under
CI.
"""
