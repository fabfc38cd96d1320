# Convenience targets; the canonical test command is in ROADMAP.md.

PYTHON ?= python

# Hard per-test wall-clock bounds of the chaos tiers (conftest.py).
CHAOS_NET_TIMEOUT_S ?= 120
CHAOS_DISK_TIMEOUT_S ?= 120

.PHONY: test test-fast chaos chaos-net chaos-disk chaos-all docs-check \
	bench-gateway bench-resilience bench-cluster bench-durability \
	bench-ann bench-all bench-e2e bench-e2e-smoke

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

test-fast:
	PYTHONPATH=src $(PYTHON) -m pytest -m fast -q

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

bench-gateway:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_gateway_throughput.py -q -s

bench-resilience:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_resilience_recovery.py -q -s

bench-cluster:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_cluster_failover.py -q -s

bench-durability:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_durability_wal.py -q -s

bench-ann:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_ann_retrieval.py -q -s

bench-all:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench-all

# The end-to-end and per-layer benchmark declared in BENCHMARK.json
# (bench/README.md); its worker puts src/ on the path itself.
bench-e2e:
	$(PYTHON) bench/run.py

bench-e2e-smoke:
	$(PYTHON) bench/run.py --scale 0.05
	$(PYTHON) -m pytest bench/test_harness.py -q
