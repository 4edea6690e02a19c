package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Store manages a directory of snapshot files:
//
//	snap-0000000000000120-full.mlgp
//	snap-0000000000000140-incr.mlgp
//
// The zero-padded tick keeps lexical order equal to numeric order. Writes
// go to a temp file in the same directory, are fsynced, then renamed over
// the final name, and the directory is fsynced — a crash at any point
// leaves either the old file set or the new one, never a torn latest.
type Store struct {
	dir string

	// KeepFulls bounds retention: after a successful full write, older
	// fulls beyond the newest KeepFulls (and incrementals older than the
	// oldest retained full) are pruned. <= 0 means keep everything.
	KeepFulls int

	// Fault, when set, transforms the encoded bytes just before they hit
	// the disk — the injection point for torn-write and bit-flip tests.
	// Returning nil simulates a crash before any byte was written. data is
	// the writer's buffer, which a Snapshotter reuses for its next
	// snapshot: Fault may edit it in place or return a subslice, but must
	// not keep it after returning.
	Fault func(name string, data []byte) []byte
}

// NewStore opens (creating if needed) a snapshot directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, KeepFulls: 2}, nil
}

// Dir returns the managed directory.
func (st *Store) Dir() string { return st.dir }

func snapName(tick int64, kind Kind) string {
	suffix := "full"
	if kind == KindIncremental {
		suffix = "incr"
	}
	return fmt.Sprintf("snap-%016d-%s.mlgp", tick, suffix)
}

// parseSnapName inverts snapName; ok is false for foreign files.
func parseSnapName(name string) (tick int64, kind Kind, ok bool) {
	rest, found := strings.CutPrefix(name, "snap-")
	if !found || len(rest) < 16 {
		return 0, 0, false
	}
	for i := 0; i < 16; i++ {
		c := rest[i]
		if c < '0' || c > '9' {
			return 0, 0, false
		}
		tick = tick*10 + int64(c-'0')
	}
	switch rest[16:] {
	case "-full.mlgp":
		return tick, KindFull, true
	case "-incr.mlgp":
		return tick, KindIncremental, true
	}
	return 0, 0, false
}

// Write encodes and atomically persists the snapshot, then applies
// retention. The returned path names the final file.
func (st *Store) Write(s *Snapshot) (string, error) {
	return st.WriteEncoded(Encode(s))
}

// WriteEncoded atomically persists one sealed MLGP snapshot (see Seal),
// named by the tick and kind in its header, then applies retention. The
// returned path names the final file. The store does not keep data.
func (st *Store) WriteEncoded(data []byte) (string, error) {
	if len(data) < headerSize {
		return "", ErrTruncated
	}
	// The kind and tick follow the magic and version words.
	kind := Kind(data[8])
	name := snapName(int64(binary.BigEndian.Uint64(data[9:17])), kind)
	if st.Fault != nil {
		data = st.Fault(name, data)
	}
	path := filepath.Join(st.dir, name)
	if data == nil {
		// Injected crash before the temp file existed: the directory is
		// untouched, which is exactly the atomicity guarantee.
		return path, nil
	}
	if err := writeFileAtomic(st.dir, name, data); err != nil {
		return "", err
	}
	if kind == KindFull {
		st.prune()
	}
	return path, nil
}

// writeFileAtomic lands data at dir/name via temp + fsync + rename +
// directory fsync.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmpName, filepath.Join(dir, name))
	}
	if werr != nil {
		os.Remove(tmpName)
		return werr
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

type snapFile struct {
	name string
	tick int64
	kind Kind
}

// list returns recognised snapshot files sorted oldest-first.
func (st *Store) list() ([]snapFile, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var out []snapFile
	for _, e := range entries {
		if e.IsDir() || strings.Contains(e.Name(), ".tmp-") {
			continue
		}
		if tick, kind, ok := parseSnapName(e.Name()); ok {
			out = append(out, snapFile{name: e.Name(), tick: tick, kind: kind})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].tick != out[j].tick {
			return out[i].tick < out[j].tick
		}
		return out[i].kind < out[j].kind // full sorts before incr at equal tick
	})
	return out, nil
}

// prune enforces KeepFulls: the newest KeepFulls fulls survive, plus every
// incremental at or after the oldest surviving full (older incrementals
// have lost their base and could never be restored anyway).
func (st *Store) prune() {
	if st.KeepFulls <= 0 {
		return
	}
	files, err := st.list()
	if err != nil {
		return
	}
	var fullTicks []int64
	for _, f := range files {
		if f.kind == KindFull {
			fullTicks = append(fullTicks, f.tick)
		}
	}
	if len(fullTicks) <= st.KeepFulls {
		return
	}
	oldestKept := fullTicks[len(fullTicks)-st.KeepFulls]
	for _, f := range files {
		if f.tick < oldestKept {
			os.Remove(filepath.Join(st.dir, f.name))
		}
	}
}

// Resolved is a restorable snapshot: the full base plus, when the latest
// good file was an incremental, the delta layered on it.
type Resolved struct {
	Tick  int64     // tick the restored state will be at
	Full  *Snapshot // always set
	Delta *Snapshot // nil when Full was the latest good file
	Path  string    // file the state was resolved from (the delta if any)

	// Skipped lists files that were present but rejected (corrupt,
	// truncated, or an incremental whose base full is unusable), newest
	// first — the caller's signal that it degraded to an older snapshot.
	Skipped []string
}

// ErrNoSnapshot reports an empty (or entirely unusable) store.
var ErrNoSnapshot = errors.New("persist: no usable snapshot")

// LoadLatest walks the store newest-first and returns the newest restorable
// state, skipping anything that fails Decode. An incremental resolves
// against its exact base full (BaseTick); if that base is missing or
// corrupt the incremental is skipped too — never silently rebased.
func (st *Store) LoadLatest() (*Resolved, error) {
	files, err := st.list()
	if err != nil {
		return nil, err
	}
	res := &Resolved{}
	decode := func(f snapFile) *Snapshot {
		data, err := os.ReadFile(filepath.Join(st.dir, f.name))
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				res.Skipped = append(res.Skipped, f.name)
			}
			return nil
		}
		s, err := Decode(data)
		if err != nil || s.Kind != f.kind || s.Tick != f.tick {
			res.Skipped = append(res.Skipped, f.name)
			return nil
		}
		return s
	}
	fullAt := func(tick int64) *snapFile {
		for i := range files {
			if files[i].kind == KindFull && files[i].tick == tick {
				return &files[i]
			}
		}
		return nil
	}
	for i := len(files) - 1; i >= 0; i-- {
		f := files[i]
		s := decode(f)
		if s == nil {
			continue
		}
		if f.kind == KindFull {
			res.Tick, res.Full, res.Path = f.tick, s, filepath.Join(st.dir, f.name)
			return res, nil
		}
		base := fullAt(s.BaseTick)
		if base == nil {
			res.Skipped = append(res.Skipped, f.name)
			continue
		}
		bs := decode(*base)
		if bs == nil {
			res.Skipped = append(res.Skipped, f.name)
			continue
		}
		res.Tick, res.Full, res.Delta, res.Path = f.tick, bs, s, filepath.Join(st.dir, f.name)
		return res, nil
	}
	return nil, fmt.Errorf("%w in %s (%d file(s) rejected)", ErrNoSnapshot, st.dir, len(res.Skipped))
}

// LatestPath returns the newest snapshot file name without decoding it, or
// "" when the store is empty. Fault-injection tests corrupt this file.
func (st *Store) LatestPath() string {
	files, err := st.list()
	if err != nil || len(files) == 0 {
		return ""
	}
	return filepath.Join(st.dir, files[len(files)-1].name)
}

// Corruption modes for CorruptFile.
const (
	CorruptTruncate = iota // drop the second half of the file
	CorruptBitFlip         // flip one bit mid-file
)

// CorruptFile damages an existing snapshot file in place — the test-side
// counterpart of the Fault hook, for crashes injected after a write
// completed.
func CorruptFile(path string, mode int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	switch mode {
	case CorruptTruncate:
		data = data[:len(data)/2]
	case CorruptBitFlip:
		if len(data) == 0 {
			return fmt.Errorf("persist: cannot bit-flip empty file %s", path)
		}
		data[len(data)/2] ^= 0x10
	default:
		return fmt.Errorf("persist: unknown corruption mode %d", mode)
	}
	return os.WriteFile(path, data, 0o644)
}
