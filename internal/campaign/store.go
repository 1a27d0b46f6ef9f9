// Package campaign is the crash-tolerant orchestration layer over the
// experiments runner: it expands a campaign spec (JSON) into a DAG of
// content-addressed jobs, fans the jobs out to a pool of worker
// subprocesses with per-job timeouts, bounded retries with jittered
// exponential backoff and a hung-worker watchdog, and lands every
// result in an atomic on-disk store keyed by the job's canonical
// input hash. A campaign interrupted at ANY point — worker SIGKILL,
// coordinator SIGTERM, machine power loss — resumes by rerunning the
// same command: completed jobs are skipped byte-exactly, repeated jobs
// dedup for free, and the aggregate artifact is byte-identical to an
// uninterrupted run's.
package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Store is the content-addressed result store. Layout:
//
//	<dir>/objects/<hh>/<hash>.json      one entry per completed job
//	<dir>/objects/<hh>/.tmp-*           in-flight writes (never read)
//
// where <hash> is the job's canonical input hash (experiments.JobSpec
// Hash) and <hh> its first two hex digits. An entry is one header line
// — {"ibcampStore":1,"input":<hash>,"bodySha256":<hex>} — followed by
// the artifact body; Get verifies both hashes, so a corrupted or
// misfiled entry can never masquerade as a cached result.
//
// Durability contract: Put writes to a .tmp- file in the final
// directory, fsyncs it, renames it into place and fsyncs the
// directory. A writer killed at any instant therefore leaves either no
// entry (plus an ignored .tmp- file SweepTorn collects) or the
// complete, verified entry — never a torn artifact. The campaign
// coordinator is the only writer; workers hand it their artifacts.
type Store struct {
	dir string
}

const (
	storeSchema = 1
	tmpPrefix   = ".tmp-"
)

var (
	// ErrNotFound reports a hash with no stored entry.
	ErrNotFound = errors.New("campaign: result not in store")
	// ErrCorrupt reports an entry that failed hash verification.
	ErrCorrupt = errors.New("campaign: corrupt store entry")
)

type entryHeader struct {
	Store int    `json:"ibcampStore"`
	Input string `json:"input"`
	Body  string `json:"bodySha256"`
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("campaign: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func validHash(hash string) bool {
	if len(hash) != 64 {
		return false
	}
	_, err := hex.DecodeString(hash)
	return err == nil
}

func (s *Store) entryPath(hash string) string {
	return filepath.Join(s.dir, "objects", hash[:2], hash+".json")
}

// Put stores body under hash atomically: temp file in the destination
// directory (same filesystem, so the rename is atomic), fsync, rename,
// directory fsync. Idempotent — a concurrent Put of the same hash
// leaves one complete entry either way.
func (s *Store) Put(hash string, body []byte) error {
	if !validHash(hash) {
		return fmt.Errorf("campaign: bad store hash %q", hash)
	}
	dir := filepath.Dir(s.entryPath(hash))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: store put: %w", err)
	}
	sum := sha256.Sum256(body)
	hdr, err := json.Marshal(entryHeader{Store: storeSchema, Input: hash, Body: hex.EncodeToString(sum[:])})
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("campaign: store put: %w", err)
	}
	tmp := f.Name()
	cleanup := func() { os.Remove(tmp) }
	for _, chunk := range [][]byte{hdr, []byte("\n"), body} {
		if _, err := f.Write(chunk); err != nil {
			f.Close()
			cleanup()
			return fmt.Errorf("campaign: store put: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		cleanup()
		return fmt.Errorf("campaign: store put: %w", err)
	}
	if err := f.Close(); err != nil {
		cleanup()
		return fmt.Errorf("campaign: store put: %w", err)
	}
	if err := os.Rename(tmp, s.entryPath(hash)); err != nil {
		cleanup()
		return fmt.Errorf("campaign: store put: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Get returns the stored body for hash after verifying the entry:
// header schema, input-hash match and body checksum. Returns
// ErrNotFound when no entry exists and an ErrCorrupt-wrapped error
// when one exists but fails verification.
func (s *Store) Get(hash string) ([]byte, error) {
	if !validHash(hash) {
		return nil, fmt.Errorf("campaign: bad store hash %q", hash)
	}
	data, err := os.ReadFile(s.entryPath(hash))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, hash)
		}
		return nil, fmt.Errorf("campaign: store get: %w", err)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: %s: missing header line", ErrCorrupt, hash)
	}
	var hdr entryHeader
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		return nil, fmt.Errorf("%w: %s: bad header: %v", ErrCorrupt, hash, err)
	}
	if hdr.Store != storeSchema {
		return nil, fmt.Errorf("%w: %s: store schema %d, want %d", ErrCorrupt, hash, hdr.Store, storeSchema)
	}
	if hdr.Input != hash {
		return nil, fmt.Errorf("%w: %s: entry claims input %s", ErrCorrupt, hash, hdr.Input)
	}
	body := data[nl+1:]
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != hdr.Body {
		return nil, fmt.Errorf("%w: %s: body sha256 %s, header says %s", ErrCorrupt, hash, got, hdr.Body)
	}
	return body, nil
}

// Remove deletes the entry for hash (used to evict a corrupt entry
// before rerunning its job). Missing entries are not an error.
func (s *Store) Remove(hash string) error {
	if !validHash(hash) {
		return fmt.Errorf("campaign: bad store hash %q", hash)
	}
	err := os.Remove(s.entryPath(hash))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// SweepTorn removes leftover temp files from a coordinator that died
// mid-Put. Safe to run at campaign start, before this coordinator's
// first Put, as long as no other coordinator is writing the same
// store. Returns the removed paths.
func (s *Store) SweepTorn() ([]string, error) {
	var removed []string
	err := filepath.WalkDir(filepath.Join(s.dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), tmpPrefix) {
			if err := os.Remove(path); err != nil {
				return err
			}
			removed = append(removed, path)
		}
		return nil
	})
	sort.Strings(removed)
	return removed, err
}

// Verify walks the whole store: every entry must hash-verify, every
// file must be either an entry or a temp file. It returns the number
// of valid entries and the paths of temp (torn-write) files found; err
// is non-nil on the first corrupt or alien file. The CI gate runs this
// after a resumed campaign and requires torn == nil.
func (s *Store) Verify() (entries int, torn []string, err error) {
	err = filepath.WalkDir(filepath.Join(s.dir, "objects"), func(path string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if d.IsDir() {
			return nil
		}
		name := d.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			torn = append(torn, path)
			return nil
		}
		hash := strings.TrimSuffix(name, ".json")
		if len(hash) == len(name) || !validHash(hash) {
			return fmt.Errorf("campaign: alien file in store: %s", path)
		}
		if _, gerr := s.Get(hash); gerr != nil {
			return gerr
		}
		entries++
		return nil
	})
	sort.Strings(torn)
	return entries, torn, err
}
