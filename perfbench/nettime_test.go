package main

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"eclipsemr/internal/apps"
	"eclipsemr/internal/cluster"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/transport"
	"eclipsemr/internal/workloads"
)

// wordCountOutput runs wordcount once on a fresh 4-node cluster over net
// (nil: the cluster default) and returns the encoded output.
func wordCountOutput(t *testing.T, net transport.Network, text []byte) []byte {
	t.Helper()
	c, err := cluster.New(4, cluster.Options{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.UploadRecords("in.txt", "u", dhtfs.PermPublic, text, '\n'); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(mapreduce.JobSpec{ID: "wc", App: apps.WordCount, Inputs: []string{"in.txt"}, User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := c.Collect(res, "u")
	if err != nil {
		t.Fatal(err)
	}
	return mapreduce.EncodeKVs(kvs)
}

func TestTimingNetLeavesOutputByteIdentical(t *testing.T) {
	text := workloads.Text(9, 600<<10, 500)
	plain := wordCountOutput(t, nil, text)
	tn := newTimingNet(transport.NewLocal())
	tn.recording.Store(true)
	timed := wordCountOutput(t, tn, text)
	if !bytes.Equal(plain, timed) {
		t.Fatalf("output differs under the timing wrapper: %d vs %d bytes", len(plain), len(timed))
	}
	totals := tn.totals()
	if m := totals["mr.runMap"]; m.Calls == 0 || m.Busy <= 0 || len(m.Durations) != int(m.Calls) {
		t.Fatalf("mr.runMap not accounted: %+v", m)
	}
	if totals["fs.putBlock"].Bytes == 0 {
		t.Fatal("fs.putBlock bytes not accounted")
	}
}

func TestTimingNetPassesHandlerErrorsThrough(t *testing.T) {
	tn := newTimingNet(transport.NewLocal())
	tn.recording.Store(true)
	boom := errors.New("boom")
	if err := tn.Listen("n1", func(context.Context, string, []byte) ([]byte, error) { return nil, boom }); err != nil {
		t.Fatal(err)
	}
	_, err := tn.Call(context.Background(), hashing.NodeID("n1"), "m.fail", []byte("req"))
	var re *transport.RemoteError
	if !errors.As(err, &re) || re.Method != "m.fail" || re.Msg != boom.Error() {
		t.Fatalf("got %v, want a RemoteError carrying the handler's error", err)
	}
	_, err = tn.Call(context.Background(), hashing.NodeID("nobody"), "m.fail", nil)
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("got %v, want ErrUnreachable", err)
	}
	if got := tn.totals()["m.fail"]; got.Calls != 2 || got.Errors != 2 || got.Bytes != 3 {
		t.Fatalf("totals %+v, want 2 calls, 2 errors, 3 bytes", got)
	}
}
