package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Key content-addresses one completed measurement point. See the package
// doc for the derivation; build one with KeyFor.
type Key [sha256.Size]byte

// Tally is the durable result for one point: packets attempted and the
// per-receiver-arm success counts.
type Tally struct {
	N  int
	OK []int
}

// Record pairs a key with its tally.
type Record struct {
	Key   Key
	Tally Tally
}

// Location names where a record's frame lives: the segment number and
// the frame's byte offset within the segment file. It is index state
// (rebuilt from the framing on Open), letting history/query layers
// reference records without re-reading payloads.
type Location struct {
	Segment int
	Offset  int64
}

// Options configures Open.
type Options struct {
	// NoSync skips the fsync of segment data and of the directory on
	// every write. Tests and benches only: a crash can then lose or
	// tear acknowledged records (recovery still salvages the rest).
	NoSync bool

	// MaxBytes, when positive, bounds the total bytes of live segment
	// files. After every Put the least-recently-hit whole segments are
	// evicted (file removed, records dropped from the index) until the
	// store fits, skipping segments holding any pinned record. Zero
	// means unbounded.
	MaxBytes int64
}

// RecoveryStats reports what Open found on disk.
type RecoveryStats struct {
	Segments        int // segment files scanned
	Records         int // intact records restored
	DamagedSegments int // segments with a torn tail, corrupt record, or bad magic
}

// entry is one indexed record: the tally plus where its frame lives.
type entry struct {
	tally Tally
	seg   int
	off   int64
}

// segInfo is the per-segment eviction state.
type segInfo struct {
	bytes   int64
	lastHit time.Time
	keys    []Key
}

// Store is a content-addressed result store over one directory. All
// methods are safe for concurrent use. The store itself never reads the
// wall clock: Put and Touch take the current time from the caller, so
// recorded arrival/hit times are the caller's notion of "now".
type Store struct {
	dir      string
	noSync   bool
	maxBytes int64

	mu      sync.Mutex
	idx     map[Key]entry
	segs    map[int]*segInfo
	pins    map[Key]int
	total   int64 // bytes across indexed segments
	nextSeg int
}

// KeyFor derives the content-address key for one sweep point:
// sha256("cpr-store|v1" | fingerprint | pool identity | identity).
// fingerprint is experiments.SweepPlan.Fingerprint(), identity the
// plan's PointIdentity for the point. Pool-less callers pass
// pooled=false (size and seed are then canonicalized to zero).
func KeyFor(fingerprint, identity string, pooled bool, poolSize int, poolSeed int64) Key {
	if !pooled {
		poolSize, poolSeed = 0, 0
	}
	h := sha256.New()
	h.Write([]byte("cpr-store|v1"))
	h.Write([]byte{0})
	h.Write([]byte(fingerprint))
	h.Write([]byte{0})
	var pool [17]byte
	if pooled {
		pool[0] = 1
	}
	binary.LittleEndian.PutUint64(pool[1:], uint64(poolSize))
	binary.LittleEndian.PutUint64(pool[9:], uint64(poolSeed))
	h.Write(pool[:])
	h.Write([]byte{0})
	h.Write([]byte(identity))
	var k Key
	h.Sum(k[:0])
	return k
}

// Open loads (creating if needed) the store at dir, salvaging every
// intact record from its segments. Damage is reported in RecoveryStats
// and counted in cpr_store_corrupt_records_total; it is never fatal.
// Each restored segment's last-hit time starts at its file mtime, so
// eviction order survives restarts without the store reading the clock.
func Open(dir string, opts Options) (*Store, RecoveryStats, error) {
	var stats RecoveryStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		noSync:   opts.NoSync,
		maxBytes: opts.MaxBytes,
		idx:      make(map[Key]entry),
		segs:     make(map[int]*segInfo),
		pins:     make(map[Key]int),
	}

	names, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		return nil, stats, fmt.Errorf("store: %w", err)
	}
	sort.Strings(names)
	for _, name := range names {
		n := segNumber(name)
		if n >= s.nextSeg {
			s.nextSeg = n + 1
		}
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, stats, fmt.Errorf("store: %w", err)
		}
		stats.Segments++
		si := &segInfo{bytes: int64(len(data))}
		if fi, err := os.Stat(name); err == nil {
			si.lastHit = fi.ModTime()
		}
		rec, damaged := parseSegment(data, func(r Record, off int64) {
			s.idx[r.Key] = entry{tally: r.Tally, seg: n, off: off}
			si.keys = append(si.keys, r.Key)
		})
		stats.Records += rec
		if damaged {
			stats.DamagedSegments++
			Corrupt.Inc()
		}
		// Only segments that contributed records join the eviction
		// bookkeeping: a foreign or fully-corrupt file is left alone
		// rather than deleted by a policy that cannot know what it is.
		if rec > 0 && n >= 0 {
			s.segs[n] = si
			s.total += si.bytes
		}
	}
	// Stray temp files are aborted writes from a previous life.
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
		for _, t := range tmps {
			os.Remove(t)
		}
	}
	return s, stats, nil
}

// segNumber parses the numeric part of a "seg-<n>.seg" path, -1 if malformed.
func segNumber(path string) int {
	base := filepath.Base(path)
	base = strings.TrimPrefix(base, "seg-")
	base = strings.TrimSuffix(base, ".seg")
	n, err := strconv.Atoi(base)
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// Get returns the stored tally for k. The returned OK slice is a copy.
func (s *Store) Get(k Key) (Tally, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.idx[k]
	if !ok {
		return Tally{}, false
	}
	out := Tally{N: e.tally.N, OK: make([]int, len(e.tally.OK))}
	copy(out.OK, e.tally.OK)
	return out, true
}

// Locate reports where k's record frame lives without touching the
// payload — the probe history/query layers use to count stored points.
func (s *Store) Locate(k Key) (Location, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.idx[k]
	if !ok {
		return Location{}, false
	}
	return Location{Segment: e.seg, Offset: e.off}, true
}

// Touch marks k's segment as hit at the caller's now, refreshing its
// position in the eviction LRU. Call it where a stored tally actually
// displaces work (the same decision sites that count Hits).
func (s *Store) Touch(k Key, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.idx[k]
	if !ok {
		return
	}
	if si := s.segs[e.seg]; si != nil && now.After(si.lastHit) {
		si.lastHit = now
	}
}

// Pin marks keys as referenced by a live job so eviction never removes
// the segments holding them (present now or written later). The returned
// release is idempotent and must be called when the job finishes.
func (s *Store) Pin(keys ...Key) (release func()) {
	pinned := append([]Key(nil), keys...)
	s.mu.Lock()
	for _, k := range pinned {
		s.pins[k]++
	}
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			for _, k := range pinned {
				if s.pins[k]--; s.pins[k] <= 0 {
					delete(s.pins, k)
				}
			}
			s.mu.Unlock()
		})
	}
}

// Len reports how many distinct points the store holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// Bytes reports the total size of indexed segment files.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Put durably appends recs as one new segment, skipping keys already
// present (duplicate Puts are no-ops). The segment is written whole to a
// temp file, fsynced, renamed into place, and the directory fsynced —
// unless the store was opened with NoSync. OK slices are copied. now is
// the caller's wall clock; it stamps the segment's arrival for the
// eviction LRU (the store never calls time.Now itself). When a MaxBytes
// budget is set, Put evicts least-recently-hit unpinned segments after
// appending until the store fits again.
func (s *Store) Put(now time.Time, recs ...Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg := s.nextSeg
	// One pass prepares the index entries alongside the encoded segment;
	// they are committed to the index only after the file is on disk. All
	// OK copies share one backing array, sliced per record afterwards (the
	// spans survive okBuf reallocations, the subslices would not). The
	// buffers are allocated on the first fresh record so an all-duplicate
	// Put — the store-replay path — allocates nothing.
	var (
		buf   []byte
		keys  []Key
		ents  []entry
		spans []int
		okBuf []int
	)
	for _, r := range recs {
		if _, dup := s.idx[r.Key]; dup {
			continue
		}
		if err := validTally(r.Tally); err != nil {
			return err
		}
		if keys == nil {
			buf = append(make([]byte, 0, 64*len(recs)), segMagic...)
			keys = make([]Key, 0, len(recs))
			ents = make([]entry, 0, len(recs))
			spans = make([]int, 1, len(recs)+1)
			okBuf = make([]int, 0, 8*len(recs))
		}
		off := int64(len(buf))
		buf = appendRecord(buf, r)
		okBuf = append(okBuf, r.Tally.OK...)
		spans = append(spans, len(okBuf))
		keys = append(keys, r.Key)
		ents = append(ents, entry{tally: Tally{N: r.Tally.N}, seg: seg, off: off})
	}
	if len(keys) == 0 {
		return nil
	}
	final := filepath.Join(s.dir, fmt.Sprintf("seg-%08d.seg", seg))
	if err := atomicWrite(final, buf, !s.noSync); err != nil {
		return err
	}
	s.nextSeg++
	for i, k := range keys {
		ents[i].tally.OK = okBuf[spans[i]:spans[i+1]:spans[i+1]]
		s.idx[k] = ents[i]
	}
	s.segs[seg] = &segInfo{bytes: int64(len(buf)), lastHit: now, keys: keys}
	s.total += int64(len(buf))
	s.evictLocked()
	return nil
}

// evictLocked removes least-recently-hit segments until the store fits
// its MaxBytes budget. Segments holding any pinned key are skipped, so a
// live job's restore set can never be collected out from under it; if
// everything over budget is pinned the store stays over budget.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.total > s.maxBytes {
		victim := -1
		var oldest time.Time
		for n, si := range s.segs {
			if s.segPinnedLocked(n, si) {
				continue
			}
			if victim < 0 || si.lastHit.Before(oldest) {
				victim, oldest = n, si.lastHit
			}
		}
		if victim < 0 {
			return
		}
		si := s.segs[victim]
		// Removal need not be durable: a crash that resurrects the file
		// just re-evicts it after the next Put.
		os.Remove(filepath.Join(s.dir, fmt.Sprintf("seg-%08d.seg", victim)))
		dropped := int64(0)
		for _, k := range si.keys {
			// A key can be re-homed by a later segment (post-eviction
			// recompute); only drop it if this segment still owns it.
			if e, ok := s.idx[k]; ok && e.seg == victim {
				delete(s.idx, k)
				dropped++
			}
		}
		delete(s.segs, victim)
		s.total -= si.bytes
		EvictedSegments.Inc()
		EvictedRecords.Add(dropped)
		EvictedBytes.Add(si.bytes)
	}
}

// segPinnedLocked reports whether segment n holds any pinned record.
func (s *Store) segPinnedLocked(n int, si *segInfo) bool {
	if len(s.pins) == 0 {
		return false
	}
	for _, k := range si.keys {
		if s.pins[k] > 0 {
			if e, ok := s.idx[k]; ok && e.seg == n {
				return true
			}
		}
	}
	return false
}

// Close releases the store. The index is memory-only and every segment
// is already durable, so this is currently a no-op kept for symmetry.
func (s *Store) Close() error { return nil }

// AtomicWrite writes data to path via a temp file in the same directory,
// renaming into place; with sync it fsyncs the data before the rename and
// the directory after. Exposed for sibling durable state (job manifests)
// that must share the store's crash-safety discipline.
func AtomicWrite(path string, data []byte, sync bool) error {
	return atomicWrite(path, data, sync)
}

func atomicWrite(path string, data []byte, sync bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if sync {
		d, err := os.Open(dir)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		defer d.Close()
		if err := d.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}
