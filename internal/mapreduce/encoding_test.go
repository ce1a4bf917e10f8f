package mapreduce

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeKVs(t *testing.T) {
	in := []KV{
		{Key: "alpha", Value: []byte("1")},
		{Key: "", Value: nil}, // empty key and value are legal
		{Key: "beta", Value: []byte{0, 1, 2, 255}},
	}
	data := EncodeKVs(in)
	out, err := DecodeKVs(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range in {
		if out[i].Key != in[i].Key || !bytes.Equal(out[i].Value, in[i].Value) {
			t.Fatalf("pair %d = %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestDecodeKVsRejectsTruncation(t *testing.T) {
	data := EncodeKVs([]KV{{Key: "key", Value: []byte("value")}})
	for cut := 1; cut < len(data); cut++ {
		if _, err := DecodeKVs(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if out, err := DecodeKVs(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty stream: %v, %d", err, len(out))
	}
}

// Property: concatenation of encodings decodes to concatenation of pairs —
// the invariant that makes spill appends safe.
func TestEncodingConcatenation(t *testing.T) {
	f := func(a, b []string) bool {
		mk := func(keys []string) []KV {
			kvs := make([]KV, len(keys))
			for i, k := range keys {
				kvs[i] = KV{Key: k, Value: []byte(k + "!")}
			}
			return kvs
		}
		ka, kb := mk(a), mk(b)
		joined := append(append([]byte(nil), EncodeKVs(ka)...), EncodeKVs(kb)...)
		out, err := DecodeKVs(joined)
		if err != nil {
			return false
		}
		want := append(append([]KV(nil), ka...), kb...)
		if len(out) != len(want) {
			return false
		}
		for i := range want {
			if out[i].Key != want[i].Key || !bytes.Equal(out[i].Value, want[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// group is one GroupByKey call with its values copied out, so tests can
// hold on to them past the callback.
type group struct {
	Key    string
	Values [][]byte
}

// collectGroups runs GroupByKey over data and records every call.
func collectGroups(data []byte) ([]group, error) {
	var out []group
	err := GroupByKey(data, func(key string, values [][]byte) error {
		g := group{Key: key}
		for _, v := range values {
			g.Values = append(g.Values, append([]byte(nil), v...))
		}
		out = append(out, g)
		return nil
	})
	return out, err
}

func TestGroupByKey(t *testing.T) {
	data := EncodeKVs([]KV{
		{Key: "b", Value: []byte("1")},
		{Key: "a", Value: []byte("2")},
		{Key: "b", Value: []byte("3")},
		{Key: "a", Value: []byte("4")},
	})
	orig := append([]byte(nil), data...)
	groups, err := collectGroups(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	if groups[0].Key != "a" || groups[1].Key != "b" {
		t.Fatalf("order = %s,%s", groups[0].Key, groups[1].Key)
	}
	// Stability: values keep their emission order within a key.
	if string(groups[0].Values[0]) != "2" || string(groups[0].Values[1]) != "4" {
		t.Fatalf("a values = %q", groups[0].Values)
	}
	if string(groups[1].Values[0]) != "1" || string(groups[1].Values[1]) != "3" {
		t.Fatalf("b values = %q", groups[1].Values)
	}
	if got, err := collectGroups(nil); err != nil || len(got) != 0 {
		t.Fatalf("empty group = %v, %v", got, err)
	}
	// The stream must not be reordered in place.
	if !bytes.Equal(data, orig) {
		t.Fatal("GroupByKey mutated its input")
	}
	// A callback error stops the walk and is returned as is.
	stop := errors.New("stop")
	calls := 0
	err = GroupByKey(data, func(string, [][]byte) error { calls++; return stop })
	if err != stop || calls != 1 {
		t.Fatalf("callback error: err=%v after %d calls", err, calls)
	}
}

func TestParamsCloneAndGet(t *testing.T) {
	p := Params{"k": []byte("v")}
	c := p.Clone()
	c["k"][0] = 'X'
	if p.Get("k") != "v" {
		t.Fatal("Clone aliased values")
	}
	if p.Get("missing") != "" {
		t.Fatal("missing param not empty")
	}
}

func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name string, app App) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("Register(%s) did not panic", name)
			}
		}()
		Register(name, app)
	}
	mustPanic("incomplete", App{})
	ok := App{
		Map:    func(Params, []byte, Emit) error { return nil },
		Reduce: func(Params, string, [][]byte, Emit) error { return nil },
	}
	Register("enc-test-app", ok)
	mustPanic("enc-test-app", ok) // duplicate
	found := false
	for _, n := range RegisteredApps() {
		if n == "enc-test-app" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered app not listed")
	}
	if _, err := lookupApp("nope"); err == nil {
		t.Fatal("lookup of unknown app succeeded")
	}
}

func TestJobSpecNamespaceAndValidate(t *testing.T) {
	s := JobSpec{ID: "j1", App: "enc-test-app", Inputs: []string{"f"}}
	if s.Namespace() != "job:j1" {
		t.Fatalf("Namespace = %q", s.Namespace())
	}
	s.ReuseTag = "shared"
	if s.Namespace() != "tag:shared" {
		t.Fatalf("Namespace = %q", s.Namespace())
	}
	bad := []JobSpec{
		{},
		{ID: "x"},
		{ID: "x", App: "enc-test-app"},
		{ID: "x", App: "unregistered", Inputs: []string{"f"}},
	}
	for i, b := range bad {
		if err := b.validate(); err == nil {
			t.Errorf("spec %d validated", i)
		}
	}
}
