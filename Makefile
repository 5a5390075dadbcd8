.PHONY: all build check test ci bench bench-smoke clean

all: build

build:
	dune build

check:
	dune build @check

test: build
	dune runtest

# Full gate: type-check, build, tests, bench smoke.
ci:
	sh bin/ci.sh

# Full benchmark run (minutes; writes every BENCH_*.json artifact).
bench:
	dune exec bench/main.exe

# Quick shape check of the primitive-overhead and hot-path experiments.
bench-smoke:
	dune exec bench/main.exe -- --only e1,hotpath --smoke

clean:
	dune clean
