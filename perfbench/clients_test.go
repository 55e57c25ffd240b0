package main

import (
	"context"
	"testing"

	"corbalc/internal/cdr"
)

// pushBatch delivers the events seqs to the sink as one push_batch.
func pushBatch(t *testing.T, d *eventClient, seqs ...uint64) {
	t.Helper()
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteString(eventType)
	e.WriteULong(uint32(len(seqs)))
	buf := make([]byte, 512)
	for _, seq := range seqs {
		e.WriteString(eventSource)
		e.WriteOctetSeq(d.stream.event(seq, buf))
	}
	if err := d.sink(context.Background(), "push_batch", cdr.NewDecoder(e.Bytes(), cdr.BigEndian), nil); err != nil {
		t.Fatal(err)
	}
}

// TestSinkBatchOrder checks the remote subscriber's oracle: events inside
// one push_batch must be consecutive and ascending, while a batch that
// overtakes an earlier one is only counted.
func TestSinkBatchOrder(t *testing.T) {
	d := newEventClient(genEvents(1, 64))
	pushBatch(t, d, 0, 1, 2)
	pushBatch(t, d, 5, 6)
	pushBatch(t, d, 3, 4) // overtaken by the batch before: counted only
	if d.misorder != 0 || d.bad != 0 || d.received != 7 {
		t.Fatalf("in-order batches: misorder %d, bad %d, received %d", d.misorder, d.bad, d.received)
	}
	if d.reordered != 2 {
		t.Errorf("reordered %d, want 2", d.reordered)
	}
	pushBatch(t, d, 8, 7)
	pushBatch(t, d, 9, 11)
	if d.misorder != 2 {
		t.Errorf("misorder %d after a descending and a gapped batch, want 2", d.misorder)
	}
	pushBatch(t, d, 10, 10)
	if d.bad != 1 {
		t.Errorf("bad %d after a duplicate, want 1", d.bad)
	}
}
