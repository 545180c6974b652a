package harness

import (
	"io"
	"strings"
	"testing"
)

// TestMsgVolumeSmall pins the message-volume experiment's shape and its
// honest finding: correction payloads are budget-determined (dense fine
// vectors), so the golden and sparsified totals agree exactly, while
// the sparsified hierarchy is no larger than the golden one.
func TestMsgVolumeSmall(t *testing.T) {
	var sb strings.Builder
	cfg := DefaultMsgVolume()
	cfg.Size, cfg.MaxCorrections = 8, 20
	rep, err := MsgVolume(&sb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SentNNZGolden <= 0 {
		t.Fatal("no payload counted")
	}
	if rep.SentNNZSparsified != rep.SentNNZGolden {
		t.Errorf("payload changed: %d -> %d (corrections are dense fine vectors; did the protocol change?)",
			rep.SentNNZGolden, rep.SentNNZSparsified)
	}
	if rep.HierarchyBytesSparsified > rep.HierarchyBytesGolden {
		t.Errorf("sparsified hierarchy grew: %d -> %d", rep.HierarchyBytesGolden, rep.HierarchyBytesSparsified)
	}
	if len(rep.PerGridGolden) == 0 || !strings.Contains(sb.String(), "total sent nnz") {
		t.Error("report table missing")
	}
	if _, err := MsgVolume(io.Discard, MsgVolumeConfig{Method: "mult"}); err == nil {
		t.Error("non-additive method accepted")
	}
}
