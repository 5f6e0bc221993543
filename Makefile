PYTHON ?= python3
OUT ?= out
# Run from the checkout without installing the package.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test acceptance bench bench-pair selftest reproduce check-reproduce check size clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest -q --continue-on-collection-errors

acceptance:
	$(PYTHON) -m pytest tests/test_acceptance.py -v -s

bench:
	$(PYTHON) bench/run.py --workload all --seed 1 --seconds 15

# Alternating untraced runs of BASE and HEAD, each copied with git archive: every end-to-end metric's
# median and quartiles per side, and the pairs each side won. JSON=file also writes the runs.
PAIRS ?= 10
SECONDS ?= 15
SEED ?= 1
bench-pair:
	$(PYTHON) tools/bench_pair.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS) --seconds $(SECONDS) \
		--seed $(SEED) $(if $(JSON),--json $(JSON))

# Every benchmark workload at tiny sizes, untraced and traced, with its scoring checked; warnings
# are errors, in the workers too (they inherit the environment), so a numpy overflow fails the run.
selftest:
	PYTHONWARNINGS=error $(PYTHON) bench/selftest.py

# Write every experiment's CSV into $(OUT)/ (the table is longwire.cli.REPRODUCE_RUNS).
reproduce:
	$(PYTHON) -m longwire.cli reproduce $(OUT)

# Regenerate every CSV into a fresh temp dir, with warnings as errors; fail if any byte differs from out/.
check-reproduce:
	tmp=$$(mktemp -d) && $(PYTHON) -W error -m longwire.cli reproduce $$tmp && diff -r $$tmp out; \
	status=$$?; rm -rf $$tmp; exit $$status

# The gates a change must pass: the test suite, the benchmark's self-test, then the out/ comparison.
check: test selftest check-reproduce

# Line count of the package source, stated in every change.
size:
	@wc -l src/longwire/*.py

clean:
	rm -rf build src/*.egg-info
