package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// On-disk layout: one MANIFEST per log directory pinning the format
// version, plus one sequence of segment files named wal-<segment>.log
// that every lane's records share. The open segment ends in a
// zero-filled run that the next records overwrite; a sealed one ends
// at its last record. Format version 1 kept one sequence per lane
// (wal-<lane>-<segment>.log) and pinned the lane count; Open refuses
// it, and nothing migrates it.
const (
	segMagic      = 0x4757414c // "LAWG" little-endian on disk
	segVersion    = 2
	segHeaderSize = 16 // magic u32, version u16, reserved u16, segment u32, reserved u32

	manifestName    = "MANIFEST"
	manifestMagic   = 0x4d57414c // "LAWM"
	manifestVersion = 2
	manifestSize    = 8 // magic u32, version u16, reserved u16
)

func segName(seg uint32) string {
	return fmt.Sprintf("wal-%08d.log", seg)
}

func segPath(dir string, seg uint32) string {
	return filepath.Join(dir, segName(seg))
}

// listSegments returns the log's segment indices, oldest first.
func listSegments(dir string) ([]uint32, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	const prefix = "wal-"
	var segs []uint32
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".log") {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".log")
		v, err := strconv.ParseUint(num, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("wal: unparseable segment file %s", name)
		}
		segs = append(segs, uint32(v))
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// segHeader returns the header segment seg starts with.
func segHeader(seg uint32) [segHeaderSize]byte {
	var hdr [segHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], segMagic)
	binary.LittleEndian.PutUint16(hdr[4:], segVersion)
	binary.LittleEndian.PutUint32(hdr[8:], seg)
	return hdr
}

// createSegment creates a fresh segment file with its header written
// and synced, and the directory entry synced so the file survives a
// crash that immediately follows (records acked against this segment
// must not lose the segment itself). The file takes positioned writes
// only: records land with WriteAt over the zero-filled run.
func createSegment(dir string, seg uint32) (*os.File, error) {
	f, err := os.OpenFile(segPath(dir, seg), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := segHeader(seg)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// checkSegHeader validates a segment file's 16-byte header against the
// index its name promised.
func checkSegHeader(hdr []byte, seg uint32) error {
	if len(hdr) < segHeaderSize {
		return fmt.Errorf("wal: segment header truncated (%d bytes)", len(hdr))
	}
	if binary.LittleEndian.Uint32(hdr) != segMagic {
		return fmt.Errorf("wal: bad segment magic")
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != segVersion {
		return fmt.Errorf("wal: unsupported segment version %d", v)
	}
	if s := binary.LittleEndian.Uint32(hdr[8:]); s != seg {
		return fmt.Errorf("wal: segment header index %d, file named %d", s, seg)
	}
	return nil
}

// loadManifest checks the directory's manifest, creating one in a
// directory that has none.
func loadManifest(dir string) error {
	err := checkManifest(dir)
	if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	var m [manifestSize]byte
	binary.LittleEndian.PutUint32(m[0:], manifestMagic)
	binary.LittleEndian.PutUint16(m[4:], manifestVersion)
	if err := os.WriteFile(filepath.Join(dir, manifestName), m[:], 0o644); err != nil {
		return err
	}
	return syncDir(dir)
}

// checkManifest reads the directory's manifest and refuses every
// format but the current one.
func checkManifest(dir string) error {
	path := filepath.Join(dir, manifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) != manifestSize || binary.LittleEndian.Uint32(b) != manifestMagic {
		return fmt.Errorf("wal: %s is not a WAL manifest", path)
	}
	switch v := binary.LittleEndian.Uint16(b[4:]); v {
	case manifestVersion:
		return nil
	case 1:
		return fmt.Errorf("wal: %s holds a version 1 per-lane log (one segment sequence per lane); this build reads only version 2 (one sequence per log) and does not migrate it", dir)
	default:
		return fmt.Errorf("wal: unsupported manifest version %d", v)
	}
}

// syncDir fsyncs a directory so entry creation/removal is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
