package main

import (
	"encoding/json"
	"os"
	"time"
)

// op names one traced operation as "layer.op". Call ops are the calls
// the driver makes into the program; the rest are interposer methods
// (real children of a call) and layer probes (the call's inputs replayed
// through a layer's exported functions, outside the call).
type op uint8

const (
	opHandleBatch op = iota
	opCreate
	opCreateBatch
	opWithdraw
	opStep
	opCheckpoint
	opPlace // last call op; the ops below are not driver calls

	opTransportSend
	opAllocate
	opAllocateBatch
	opFSWrite
	opFSSync
	opFSOther

	opSapDecode
	opSapMarshal
	opSessionParse
	opSessionMarshal
	opAdmissionAllow
	opAdmissionPlan
	opAnnounceObserve
	opAnnouncePeek
	opAnnounceLive
	opAnnounceAllGrouped
	opAnnounceExpire
	opClashObserve
	opClashDue

	opSimVisibleAt
	opSimClashes
	opSimAddRemove
	numOps

	numCallOps = opPlace + 1
)

var opNames = [numOps]string{
	opHandleBatch:        "directory.handle_batch",
	opCreate:             "directory.create",
	opCreateBatch:        "directory.create_batch",
	opWithdraw:           "directory.withdraw",
	opStep:               "directory.step",
	opCheckpoint:         "directory.checkpoint",
	opPlace:              "sim.place",
	opTransportSend:      "transport.send",
	opAllocate:           "allocator.allocate",
	opAllocateBatch:      "allocator.allocate_batch",
	opFSWrite:            "storage.fs_write",
	opFSSync:             "storage.fs_sync",
	opFSOther:            "storage.fs_other",
	opSapDecode:          "sap.decode",
	opSapMarshal:         "sap.marshal",
	opSessionParse:       "session.parse",
	opSessionMarshal:     "session.marshal",
	opAdmissionAllow:     "admission.allow",
	opAdmissionPlan:      "admission.plan",
	opAnnounceObserve:    "announce.observe",
	opAnnouncePeek:       "announce.peek",
	opAnnounceLive:       "announce.live_scan",
	opAnnounceAllGrouped: "announce.all_grouped",
	opAnnounceExpire:     "announce.expire",
	opClashObserve:       "clash.observe",
	opClashDue:           "clash.due",
	opSimVisibleAt:       "sim.visible_at",
	opSimClashes:         "sim.clashes",
	opSimAddRemove:       "sim.add_remove",
}

// span is one traced interval. Parent is the index of the call span the
// work belongs to (-1 for a call span itself); Call is -1 for work done
// during set-up. Probe marks spans measured
// outside their call on a shadow instance: they estimate where the call's
// own time went and are subtracted from it to get the directory's self
// time, but they did not run inside it.
type span struct {
	Parent int32
	Call   int32 // index of the driver call in the script
	Op     op
	Probe  bool
	Start  int64 // ns since the tracer was created
	End    int64
}

// tracer appends spans to a preallocated slice. Every traced call into
// the program comes from the one driver goroutine, so there is no lock.
// All methods are no-ops on a nil tracer: untraced reps pay one nil check
// per interposer call.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int32 // open call span, -1 between calls
	call  int32
	probe bool
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), cur: -1, call: -1}
}

// beginCall opens the span of driver call i.
func (t *tracer) beginCall(i int, o op) {
	if t == nil {
		return
	}
	t.call = int32(i)
	t.probe = false
	t.cur = int32(len(t.spans))
	t.spans = append(t.spans, span{Parent: -1, Call: t.call, Op: o, Start: int64(time.Since(t.t0))})
}

func (t *tracer) endCall() {
	if t == nil {
		return
	}
	t.spans[t.cur].End = int64(time.Since(t.t0))
	t.probe = true // anything until the next call is a probe of this one
}

// begin opens a child (or probe) span and returns its index for end.
func (t *tracer) begin(o op) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Parent: t.cur, Call: t.call, Op: o, Probe: t.probe, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

type spanJSON struct {
	ID      int    `json:"id"`
	Parent  int32  `json:"parent"`
	Call    int32  `json:"call"`
	Op      string `json:"op"`
	Probe   bool   `json:"probe,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// writeSpans dumps the trace as a JSON array, one object per span.
func writeSpans(path string, spans []span) error {
	out := make([]spanJSON, len(spans))
	for i, s := range spans {
		out[i] = spanJSON{ID: i, Parent: s.Parent, Call: s.Call, Op: opNames[s.Op], Probe: s.Probe, StartNS: s.Start, EndNS: s.End}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
