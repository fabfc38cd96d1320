# Convenience targets; the canonical test command is in ROADMAP.md.

PYTHON ?= python

# Hard per-test wall-clock bounds of the chaos tiers (conftest.py).
CHAOS_NET_TIMEOUT_S ?= 120
CHAOS_DISK_TIMEOUT_S ?= 120

.PHONY: test test-fast check-clean chaos chaos-net chaos-disk chaos-all \
	docs-check bench-e2e bench-e2e-smoke bench-compare

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

test-fast:
	PYTHONPATH=src $(PYTHON) -m pytest -m fast -q

# A test run must leave no tracked file rewritten and nothing untracked.
check-clean: test
	@test -z "$$(git status --porcelain)" || \
		{ echo "make test left the tree dirty:"; git status --porcelain; exit 1; }

chaos:
	PYTHONPATH=src $(PYTHON) -m pytest -m chaos -q -s

chaos-net:
	PYTHONPATH=src REPRO_CHAOS_NET_TIMEOUT_S=$(CHAOS_NET_TIMEOUT_S) \
		$(PYTHON) -m pytest -m chaos_net -q -s

chaos-disk:
	PYTHONPATH=src REPRO_CHAOS_DISK_TIMEOUT_S=$(CHAOS_DISK_TIMEOUT_S) \
		$(PYTHON) -m pytest -m chaos_disk -q -s

chaos-all:
	PYTHONPATH=src \
		REPRO_CHAOS_NET_TIMEOUT_S=$(CHAOS_NET_TIMEOUT_S) \
		REPRO_CHAOS_DISK_TIMEOUT_S=$(CHAOS_DISK_TIMEOUT_S) \
		$(PYTHON) -m pytest -m "chaos or chaos_net or chaos_disk" -q -s

docs-check:
	$(PYTHON) -m scripts.docs_check

# The end-to-end and per-layer benchmark declared in BENCHMARK.json
# (bench/README.md); its worker puts src/ on the path itself.
bench-e2e:
	$(PYTHON) bench/run.py

bench-e2e-smoke:
	$(PYTHON) bench/run.py --scale 0.05
	$(PYTHON) -m pytest bench/test_harness.py -q

# Perf-regression gate: working tree vs REF on bench/, ten alternating
# pairs per workload (~1 h for all six).  WORKLOADS="a b" and PAIRS=n
# narrow it (the two gateway workloads at ten pairs are ~15 min);
# CLAIM=workload:metric also checks a claimed gain (CLAIM MET / NOT MET,
# exit 1 when not met).
bench-compare:
	@test -n "$(REF)" || { echo "usage: make bench-compare REF=<sha> [WORKLOADS=\"w1 w2\"] [PAIRS=n] [CLAIM=workload:metric]"; exit 2; }
	$(PYTHON) -m scripts.bench_compare $(REF) $(if $(WORKLOADS),--workload $(WORKLOADS)) $(if $(PAIRS),--pairs $(PAIRS)) $(if $(CLAIM),--claim $(CLAIM))
