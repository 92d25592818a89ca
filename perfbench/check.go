package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"drill/internal/metrics"
)

// outcome is the simulated result of one rep, folded after the drain.
type outcome struct {
	delivered, sent, queued, inflight int64
	drops                             [metrics.NumHopClasses]int64
	retransmits, timeouts, ooo        int64
	flowsStarted, flowsDone           int64
	fctCount                          int
	fctP50, fctP99                    float64 // ms, simulated
	epochs                            uint64
	tooFast                           int64
	events                            uint64
}

func (in *instance) fold() outcome {
	net, st := in.net, &in.reg.Stats
	o := outcome{
		delivered:    net.Delivered,
		sent:         net.Sent,
		queued:       net.QueuedPackets(),
		inflight:     net.InFlightPackets(),
		drops:        net.Hops.Drops,
		retransmits:  st.Retransmits,
		timeouts:     st.Timeouts,
		ooo:          st.OutOfOrder,
		flowsStarted: st.FlowsStarted,
		flowsDone:    st.FlowsFinished,
		fctCount:     st.FCT.Count(),
		epochs:       net.EpochSeq(),
		tooFast:      in.tooFast,
		events:       in.s.Executed,
	}
	if o.fctCount > 0 {
		o.fctP50 = st.FCT.Percentile(50)
		o.fctP99 = st.FCT.Percentile(99)
	}
	return o
}

// digestText is the canonical text of the simulated statistics a
// host-time optimisation must leave unchanged. The event count is left
// out on purpose: batching events changes it without changing behaviour.
func (o outcome) digestText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "delivered=%d sent=%d drops=", o.delivered, o.sent)
	for c, d := range o.drops {
		if c > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	fmt.Fprintf(&b, " retransmits=%d timeouts=%d epochs=%d flows=%d/%d fct_ms_p50=%.9g fct_ms_p99=%.9g",
		o.retransmits, o.timeouts, o.epochs, o.flowsDone, o.flowsStarted, o.fctP50, o.fctP99)
	return b.String()
}

func shortHash(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}

// check returns the first way o is wrong for workload w, or nil.
func (o outcome) check(w spec) error {
	var drops int64
	for _, d := range o.drops {
		drops += d
	}
	switch {
	case o.sent != o.delivered+drops+o.queued+o.inflight:
		return fmt.Errorf("conservation: sent %d != delivered %d + drops %d + queued %d + in-flight %d",
			o.sent, o.delivered, drops, o.queued, o.inflight)
	case o.delivered == 0 || o.flowsDone == 0 || o.fctCount == 0:
		return fmt.Errorf("no traffic completed: delivered %d, flows done %d, measured FCTs %d",
			o.delivered, o.flowsDone, o.fctCount)
	case o.flowsDone > o.flowsStarted:
		return fmt.Errorf("%d flows finished of %d started", o.flowsDone, o.flowsStarted)
	case o.tooFast > 0:
		return fmt.Errorf("%d flows finished faster than their NIC line rate allows", o.tooFast)
	case !(o.fctP50 > 0 && o.fctP50 <= o.fctP99):
		return fmt.Errorf("FCT percentiles out of order: p50 %g ms, p99 %g ms", o.fctP50, o.fctP99)
	case !w.flap && o.epochs != 1:
		return fmt.Errorf("%d epochs on a workload without failures", o.epochs)
	case w.flap && o.epochs < 2:
		return fmt.Errorf("flap storm applied only %d epoch(s)", o.epochs)
	}
	return nil
}
