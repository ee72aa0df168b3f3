"""Table I / figure reproduction benchmarks, the CI soaks and the speed gates.

A package so ``pytest benchmarks/bench_table1_cara.py`` can resolve the
shared helpers in ``conftest.py`` via a relative import.
"""
