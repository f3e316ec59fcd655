# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GOBIN := $(CURDIR)/bin

.PHONY: all build test test-shuffle race lint hamslint fmt loc clean

all: build test lint

build:
	go build ./...

test:
	go test ./...

# Shuffled order flushes out inter-test coupling; -count=1 defeats the
# cache so everything actually reruns.
test-shuffle:
	go test -shuffle=on -count=1 ./...

race:
	go test -race ./...

# lint = formatting + go vet + the repo's own contract linter. A
# hamslint finding fails the target; suppress only with a reasoned
# //hamslint:allow <analyzer> — <reason> (see EXPERIMENTS.md).
lint: fmt hamslint
	go vet ./...

hamslint: $(GOBIN)/hamslint
	go vet -vettool=$(GOBIN)/hamslint ./...

# Rebuild unconditionally: the binary hashes itself into vet's cache
# key, so a stale tool would silently lint with old analyzers.
$(GOBIN)/hamslint: FORCE
	go build -o $(GOBIN)/hamslint ./cmd/hamslint

FORCE:

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

# Non-test Go LoC per package and in total, as a Markdown table: the
# code-size budget ROADMAP.md tracks. testdata/ and the perfbench
# module are excluded. CI appends this table to its step summary.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' \
		-not -path '*/testdata/*' -not -path './.bench_build/*' -exec wc -l {} + | \
	awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); sub("^[.]/?", "", d); \
		n[d == "" ? "." : d] += $$1; t += $$1 } \
	END { print "| package | non-test Go lines |"; print "|---|---:|"; fflush(); \
		for (d in n) printf "| %s | %d |\n", d, n[d] | "sort"; close("sort"); \
		printf "| **total** | **%d** |\n", t }'

clean:
	rm -rf $(GOBIN)
