package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func testSnap(tick int64) *Snapshot {
	return &Snapshot{
		Kind: KindFull,
		Tick: tick,
		Sections: []Section{
			{ID: SectionWorld, Payload: []byte("world-payload")},
			{ID: SectionSim, Payload: []byte{}},
			{ID: SectionServer, Payload: bytes.Repeat([]byte{0xAB}, 300)},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSnap(42)
	s.Kind = KindIncremental
	s.BaseTick = 40
	data := Encode(s)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Kind != s.Kind || got.Tick != s.Tick || got.BaseTick != s.BaseTick {
		t.Fatalf("header mismatch: %+v vs %+v", got, s)
	}
	if len(got.Sections) != len(s.Sections) {
		t.Fatalf("section count %d vs %d", len(got.Sections), len(s.Sections))
	}
	for i := range s.Sections {
		if got.Sections[i].ID != s.Sections[i].ID || !bytes.Equal(got.Sections[i].Payload, s.Sections[i].Payload) {
			t.Fatalf("section %d mismatch", i)
		}
	}
	if !bytes.Equal(Encode(got), data) {
		t.Fatal("re-encode not canonical")
	}
}

// referenceEncode is Encode as it was before framing moved into
// AppendHeader/BeginSection/EndSection/Seal: the MLGP bytes it produced
// are the format, so the in-place framing must reproduce them exactly.
func referenceEncode(s *Snapshot) []byte {
	var dst []byte
	dst = AppendU32(dst, Magic)
	dst = AppendU32(dst, FormatVersion)
	dst = AppendU8(dst, byte(s.Kind))
	dst = AppendI64(dst, s.Tick)
	dst = AppendI64(dst, s.BaseTick)
	dst = AppendU32(dst, uint32(len(s.Sections)))
	dst = AppendU64(dst, checksum(dst[:headerSize]))
	for i := range s.Sections {
		sec := &s.Sections[i]
		dst = AppendU32(dst, sec.ID)
		dst = AppendU64(dst, uint64(len(sec.Payload)))
		dst = append(dst, sec.Payload...)
		dst = AppendU64(dst, checksum(sec.Payload))
	}
	return dst
}

// TestEncodeFraming: Encode, and the same framing built in place by a
// section writer and sealed, give the reference bytes that Decode accepts;
// sealing again changes nothing.
func TestEncodeFraming(t *testing.T) {
	incr := testSnap(42)
	incr.Kind, incr.BaseTick = KindIncremental, 40
	for _, s := range []*Snapshot{testSnap(7), incr, {Kind: KindFull, Tick: 3}} {
		want := referenceEncode(s)
		data := Encode(s)
		if !bytes.Equal(data, want) {
			t.Fatalf("tick %d: Encode differs from the reference at byte %d", s.Tick, firstDiff(data, want))
		}
		if _, err := Decode(data); err != nil {
			t.Fatalf("tick %d: Decode rejects Encode's bytes: %v", s.Tick, err)
		}

		// In place, into a reused buffer holding stale bytes.
		buf := bytes.Repeat([]byte{0xEE}, len(want)+64)
		framed := AppendHeader(buf[:0], s.Kind, s.Tick, s.BaseTick, len(s.Sections))
		for _, sec := range s.Sections {
			var at int
			framed, at = BeginSection(framed, sec.ID)
			framed = EndSection(append(framed, sec.Payload...), at)
		}
		Seal(framed)
		if !bytes.Equal(framed, want) {
			t.Fatalf("tick %d: in-place framing differs from the reference at byte %d", s.Tick, firstDiff(framed, want))
		}
		Seal(framed)
		if !bytes.Equal(framed, want) {
			t.Fatalf("tick %d: a second Seal changed the bytes", s.Tick)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestStoreWriteEncoded: sealed bytes land under the tick and kind their
// header names; bytes too short to hold a header are refused.
func TestStoreWriteEncoded(t *testing.T) {
	st, _ := NewStore(t.TempDir())
	incr := testSnap(44)
	incr.Kind, incr.BaseTick = KindIncremental, 40
	path, err := st.WriteEncoded(Encode(incr))
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(st.Dir(), "snap-0000000000000044-incr.mlgp"); path != want {
		t.Fatalf("wrote %s, want %s", path, want)
	}
	if _, err := st.WriteEncoded([]byte("MLGP")); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short input: got %v, want ErrTruncated", err)
	}
}

// Unknown section IDs must decode and be skippable — a newer writer's file
// still restores on an older reader that ignores sections it cannot use.
func TestDecodeSkipsUnknownSections(t *testing.T) {
	s := testSnap(7)
	s.Sections = append(s.Sections, Section{ID: 9999, Payload: []byte("from the future")})
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatalf("decode with unknown section: %v", err)
	}
	if got.Section(SectionWorld) == nil {
		t.Fatal("known section lost")
	}
	if !bytes.Equal(got.Section(9999), []byte("from the future")) {
		t.Fatal("unknown section not carried")
	}
}

// Every kind of damage must yield a typed error wrapping ErrCorrupt.
func TestDecodeRejectsDamage(t *testing.T) {
	data := Encode(testSnap(1))
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrBadMagic},
		{"future version", func(b []byte) []byte { b[7] = 99; return b }, ErrVersion},
		{"truncated header", func(b []byte) []byte { return b[:10] }, ErrTruncated},
		{"truncated body", func(b []byte) []byte { return b[:len(b)/2] }, ErrTruncated},
		{"flip header byte", func(b []byte) []byte { b[13] ^= 0x01; return b }, ErrChecksum},
		{"flip section byte", func(b []byte) []byte { b[len(b)-12] ^= 0x40; return b }, ErrChecksum},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xEE) }, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mutate(append([]byte(nil), data...))
			_, err := Decode(buf)
			if err == nil {
				t.Fatal("damage not detected")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%v does not wrap ErrCorrupt", err)
			}
		})
	}
	// Version errors: flipping the version bytes alone must not pass the
	// header checksum either way, so rewrite version AND fix nothing — the
	// dedicated case above sets b[7]=99, which fails... the checksum first.
	// Assert the precise precedence: version check runs before checksum.
	b := append([]byte(nil), data...)
	b[7] = 99
	if _, err := Decode(b); !errors.Is(err, ErrVersion) {
		t.Fatalf("version precedence: got %v", err)
	}
}

func TestStoreWriteLoadLatest(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(10); tick <= 30; tick += 10 {
		if _, err := st.Write(testSnap(tick)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tick != 30 || res.Delta != nil || len(res.Skipped) != 0 {
		t.Fatalf("unexpected resolution: %+v", res)
	}
}

func TestStoreResolvesIncrementalAgainstBase(t *testing.T) {
	st, _ := NewStore(t.TempDir())
	if _, err := st.Write(testSnap(10)); err != nil {
		t.Fatal(err)
	}
	incr := testSnap(14)
	incr.Kind = KindIncremental
	incr.BaseTick = 10
	if _, err := st.Write(incr); err != nil {
		t.Fatal(err)
	}
	res, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tick != 14 || res.Delta == nil || res.Full.Tick != 10 {
		t.Fatalf("unexpected resolution: %+v", res)
	}
}

// Corrupting the newest file must degrade to the previous good snapshot —
// and report the rejected file in Skipped.
func TestStoreFallbackOnCorruption(t *testing.T) {
	for _, mode := range []int{CorruptTruncate, CorruptBitFlip} {
		st, _ := NewStore(t.TempDir())
		st.Write(testSnap(10))
		st.Write(testSnap(20))
		if err := CorruptFile(st.LatestPath(), mode); err != nil {
			t.Fatal(err)
		}
		res, err := st.LoadLatest()
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if res.Tick != 10 || len(res.Skipped) != 1 {
			t.Fatalf("mode %d: expected fallback to 10, got %+v", mode, res)
		}
	}
}

// An incremental whose base full is corrupt is unusable; resolution must
// fall past both to an older full rather than silently rebase.
func TestStoreSkipsOrphanedIncremental(t *testing.T) {
	st, _ := NewStore(t.TempDir())
	st.Write(testSnap(10))
	st.Write(testSnap(20))
	incr := testSnap(24)
	incr.Kind = KindIncremental
	incr.BaseTick = 20
	st.Write(incr)
	if err := CorruptFile(filepath.Join(st.Dir(), "snap-0000000000000020-full.mlgp"), CorruptBitFlip); err != nil {
		t.Fatal(err)
	}
	res, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tick != 10 {
		t.Fatalf("expected fallback to 10, got %+v", res)
	}
}

func TestStoreAllCorruptFailsCleanly(t *testing.T) {
	st, _ := NewStore(t.TempDir())
	st.Write(testSnap(10))
	if err := CorruptFile(st.LatestPath(), CorruptTruncate); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadLatest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("want ErrNoSnapshot, got %v", err)
	}
}

// The Fault hook simulates a crash mid-write: whatever bytes it leaves (or
// none) must never tear an existing good snapshot.
func TestStoreTornWriteAtomicity(t *testing.T) {
	faults := []func(name string, data []byte) []byte{
		func(string, []byte) []byte { return nil },                        // crash before temp write
		func(_ string, d []byte) []byte { return d[:len(d)/3] },           // torn write
		func(_ string, d []byte) []byte { d[len(d)/2] ^= 0x08; return d }, // bit rot in flight
	}
	for i, fault := range faults {
		st, _ := NewStore(t.TempDir())
		if _, err := st.Write(testSnap(10)); err != nil {
			t.Fatal(err)
		}
		st.Fault = fault
		st.Write(testSnap(20))
		st.Fault = nil
		res, err := st.LoadLatest()
		if err != nil {
			t.Fatalf("fault %d: %v", i, err)
		}
		if res.Tick != 10 {
			t.Fatalf("fault %d: expected to land on 10, got tick %d", i, res.Tick)
		}
	}
}

func TestStoreRetention(t *testing.T) {
	st, _ := NewStore(t.TempDir())
	st.KeepFulls = 2
	for tick := int64(10); tick <= 50; tick += 10 {
		st.Write(testSnap(tick))
		incr := testSnap(tick + 4)
		incr.Kind = KindIncremental
		incr.BaseTick = tick
		st.Write(incr)
	}
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	// Last two fulls (40, 50) survive, plus incrementals at/after 40.
	want := map[string]bool{
		"snap-0000000000000040-full.mlgp": true,
		"snap-0000000000000044-incr.mlgp": true,
		"snap-0000000000000050-full.mlgp": true,
		"snap-0000000000000054-incr.mlgp": true,
	}
	if len(names) != len(want) {
		t.Fatalf("retention kept %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected survivor %s in %v", n, names)
		}
	}
}
