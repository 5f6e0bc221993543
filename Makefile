PYTHON ?= python3
OUT ?= out
# Run from the checkout without installing the package.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test acceptance bench reproduce check-reproduce clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest -q --continue-on-collection-errors

acceptance:
	$(PYTHON) -m pytest tests/test_acceptance.py -v -s

bench:
	$(PYTHON) bench/run.py --workload all --seed 1 --seconds 15

# Chain every experiment subcommand into $(OUT)/*.csv.
reproduce:
	mkdir -p $(OUT)
	$(PYTHON) -m longwire.cli --out $(OUT)/trace_alternating.csv simulate --pattern alternating --n 21 --vt 5 --vr 5 --windows 2048 --seed 1
	$(PYTHON) -m longwire.cli --out $(OUT)/trace_patterns_lfsr.csv simulate --pattern lfsr --n 21 --vt 5 --vr 5 --windows 2048 --seed 2
	$(PYTHON) -m longwire.cli --out $(OUT)/scaling_time.csv scaling-time --n-list 13,15,17,19,21 --windows 2048 --vt 5 --vr 5 --seed 3
	$(PYTHON) -m longwire.cli --out $(OUT)/scaling_length.csv scaling-length --n 21 --windows 1024 --seed 4
	$(PYTHON) -m longwire.cli --out $(OUT)/distance.csv distance --n 21 --d-list 1,2,3,4 --windows 2048 --seed 5
	$(PYTHON) -m longwire.cli --out $(OUT)/dynamic_long.csv dynamic --path long --n 21 --windows 2048 --seed 6
	$(PYTHON) -m longwire.cli --out $(OUT)/dynamic_local.csv dynamic --path local --n 21 --windows 2048 --seed 6
	$(PYTHON) -m longwire.cli --out $(OUT)/ber.csv ber --n-list 11,12,13,14,15 --bits 10000 --seed 7
	$(PYTHON) -m longwire.cli --out $(OUT)/bandwidth.csv bandwidth --n-list 13,15,17,19,21
	$(PYTHON) -m longwire.cli --out $(OUT)/exfil_demo.csv exfil --key 0xDEADBEEFCAFEBABE --w 10
	$(PYTHON) -m longwire.cli --out $(OUT)/prob_n64.csv prob --n 64 --w-list 4,6,8,10,12,14,16 --trials 20000 --seed 8
	$(PYTHON) -m longwire.cli --out $(OUT)/prob_n264.csv prob --n 264 --w-list 10,20,30,40 --trials 2000 --seed 9
	$(PYTHON) -m longwire.cli --out $(OUT)/audit_exposures.csv audit --grid docs/sample_grid.txt
	@echo "wrote $(OUT)/"

# Regenerate every CSV into a fresh temp dir; fail if any byte differs from out/.
check-reproduce:
	tmp=$$(mktemp -d) && $(MAKE) --no-print-directory reproduce OUT=$$tmp && diff -r $$tmp out; \
	status=$$?; rm -rf $$tmp; exit $$status

clean:
	rm -rf build src/*.egg-info
