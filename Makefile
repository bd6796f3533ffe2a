# Test tiers. `make test` is the default gate: tier-1 plus the
# short-budget chaos soak. Tier-2 adds vet and the race detector.
GO ?= go

.PHONY: test tier1 tier2 soak fuzz bench bench-baseline bench-check overload-demo pcap-demo trace-demo

test: tier1 soak

# Tier-1 (the ROADMAP gate): everything builds, every test passes.
tier1:
	$(GO) build ./...
	$(GO) test ./...

# Tier-2: static analysis plus the race detector over the full suite.
tier2:
	$(GO) vet ./...
	$(GO) test -race ./...

# Short-budget chaos soak: randomized fault schedules through the
# testbed (see internal/testbed/chaos_test.go and EXPERIMENTS.md).
soak:
	$(GO) test -run TestChaosSoak -count=1 ./internal/testbed

# Benchmark sweep: regenerate every exhibit at a reduced budget and write
# per-exhibit wall-clock and allocation figures — plus the gated datapath
# section (simulated pps/core, allocs/packet) — to BENCH_experiments.json.
bench:
	$(GO) run ./cmd/experiments -run all -scale 0.15 -bench BENCH_experiments.json

# Refresh the committed performance baseline. Run this (and commit the
# result) when a deliberate change moves the performance model.
bench-baseline:
	$(GO) run ./cmd/experiments -run all -scale 0.15 -bench BENCH_baseline.json

# The perf-trajectory gate: fresh bench against the committed baseline.
# Fails on >10% simulated pps/core regression or any allocs/packet
# increase; wall-clock is reported but not gated.
bench-check: bench
	$(GO) run ./cmd/benchcheck -baseline BENCH_baseline.json -fresh BENCH_experiments.json

# Overload-control demo: drive the milled WorkPackage forwarder at 4x
# its capacity with a 10% high-priority share and watch the control
# plane shed at the RX boundary (attributed drops, bounded hi-class
# p99) instead of overflowing the ring blind. The same scenario runs as
# TestOverloadPriorityExhibit in CI.
overload-demo:
	$(GO) run ./cmd/packetmill -config configs/overload-demo.click -model x-change \
		-freq 1.2 -rate 40 -packets 20000 -traffic priority \
		-overload-policy priority -overload-high 0.1 -overload-low 0.005 \
		-overload-degrade 0.012 -overload-dwell 5us
	$(GO) test -race -count=1 -run 'TestOverloadPriorityExhibit|TestOverloadShedVsUncontrolled' -v ./internal/testbed

# End-to-end capture demo over real sockets: generate a trace as a pcap,
# compute the expected output by running the milled NAT router in -io
# pcap mode, then forward the same pcap over loopback datagram sockets
# (-io wire, with pktgen replaying and capturing on either side) and
# diff the live capture against the expected one (timestamps ignored).
DEMO := build/pcap-demo

pcap-demo:
	rm -rf $(DEMO) && mkdir -p $(DEMO)
	$(GO) build -o $(DEMO)/pktgen ./cmd/pktgen
	$(GO) build -o $(DEMO)/packetmill ./cmd/packetmill
	$(DEMO)/pktgen -write $(DEMO)/in.pcap -trace campus -count 2000 -flow-count 64 -seed 7 -rate 1
	$(DEMO)/packetmill -config configs/nat-router.click -mill -model x-change \
		-io pcap -pcap-in $(DEMO)/in.pcap -pcap-out $(DEMO)/expected.pcap
	set -e; \
	$(DEMO)/pktgen -capture $(DEMO)/got.pcap -on unix:$(DEMO)/cap.sock -idle 2s & cap=$$!; \
	$(DEMO)/packetmill -config configs/nat-router.click -mill -model x-change \
		-io wire -wire-rx unix:$(DEMO)/rx.sock -wire-tx unix:$(DEMO)/cap.sock \
		-wire-idle 1500ms > $(DEMO)/wire.txt & mill=$$!; \
	until grep -q '^; serving' $(DEMO)/wire.txt || ! kill -0 $$mill 2>/dev/null; do sleep 0.02; done; \
	$(DEMO)/pktgen -replay $(DEMO)/in.pcap -to unix:$(DEMO)/rx.sock -pps 20000; \
	rc=0; wait $$mill || rc=$$?; cat $(DEMO)/wire.txt; [ $$rc -eq 0 ] && wait $$cap
	$(DEMO)/pktgen -compare $(DEMO)/got.pcap $(DEMO)/expected.pcap

# Flight-recorder demo: run the milled router with per-packet tracing
# and the full JSON report, then print where to load the results. The
# trace is Chrome trace-event JSON — drop it into https://ui.perfetto.dev
# (or chrome://tracing) to see sampled packets as spans per element.
TRACEDEMO := build/trace-demo

trace-demo:
	rm -rf $(TRACEDEMO) && mkdir -p $(TRACEDEMO)
	$(GO) build -o $(TRACEDEMO)/packetmill ./cmd/packetmill
	$(TRACEDEMO)/packetmill -builtin router -mill -model x-change -packets 20000 \
		-trace-out $(TRACEDEMO)/trace.json -trace-sample 16 \
		-report json > $(TRACEDEMO)/report.json
	@echo "report: $(TRACEDEMO)/report.json (percentiles under .latency_us, per-element under .elements[].latency_us)"
	@echo "trace:  $(TRACEDEMO)/trace.json  (open https://ui.perfetto.dev and drag the file in)"

# Brief fuzz passes over the two grammar front ends.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=30s ./internal/click
	$(GO) test -run=NONE -fuzz=FuzzFaultSchedule -fuzztime=30s ./internal/faults
