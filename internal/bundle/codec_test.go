package bundle

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// An ensemble member's uint32 length prefix is untrusted input: a 15-byte
// model claiming a 1 GiB member must fail as corrupt without allocating the
// claimed size.
func TestDecodeModelBoundsEnsembleMemberLength(t *testing.T) {
	in := []byte{kindEnsemble, 0, 1, 0x40, 0, 0, 0, kindCRF, 1, 2, 3, 4, 5, 6, 7}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeModel(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("decoding a %d-byte input allocated %d bytes", len(in), d)
	}
}

// FuzzDecodeModel feeds arbitrary bytes to the model codec: it must fail
// with an error, never panic, and whatever it accepts must encode again.
// The seeds under testdata/fuzz/FuzzDecodeModel stay small (< 4 KB) so the
// fuzzer keeps its throughput.
func FuzzDecodeModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("nil model without an error")
		}
		var buf bytes.Buffer
		if err := EncodeModel(&buf, m); err != nil {
			t.Fatalf("decoded model does not encode: %v", err)
		}
	})
}
