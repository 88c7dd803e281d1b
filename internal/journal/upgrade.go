package journal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/faultfs"
	"repro/internal/meta"
)

// Upgrade converts dir, a journal directory an older build wrote, to the
// format Open reads, once and offline (`dquery upgrade`), and returns the
// names of the files it converted: the newest snapshot, if it is a JSON
// document, becomes the checkpoint of its database at its LSN and term, and
// a segment under "DJL1\n", of before election terms, gets the header of
// term 1, its frames untouched.  Each file is replaced through a temporary
// file, fsync and rename: after a crash, a second run finishes the job.
func Upgrade(dir string, opt Options) (converted []string, err error) {
	opt = opt.withDefaults()
	segs, snaps, _, err := list(opt.FS, dir)
	if err != nil {
		return nil, fmt.Errorf("journal: upgrade: %w", err)
	}
	var names []string
	if len(snaps) > 0 {
		names = append(names, snapshotName(snaps[len(snaps)-1]))
	}
	for _, first := range segs {
		names = append(names, segmentName(first))
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		data, err := opt.FS.ReadFile(path)
		if err == nil {
			data, err = upgraded(name, data)
		}
		var f faultfs.File
		if err == nil && data != nil {
			if f, err = opt.FS.CreateTemp(dir, name+"-*.tmp"); err == nil {
				_, err = f.Write(data)
				if err = seal(opt.FS, f, err, path); err == nil {
					converted = append(converted, name)
				}
			}
		}
		if err != nil {
			return converted, fmt.Errorf("journal: upgrade: %s: %w", name, err)
		}
	}
	return converted, nil
}

// upgraded returns data, the content of the file name, in this build's
// format, and nil when it is not of an older one.
func upgraded(name string, data []byte) ([]byte, error) {
	lsn, snapshot := parseSeqName(name, "snapshot-", ".json")
	if _, _, err := parseSegHeader(data); !snapshot && errors.Is(err, errOldVersion) {
		return append(encodeSegHeader(1), data[min(len(data), len("DJL1\n")):]...), nil
	}
	if _, err := parseCkptHeader(data); !snapshot || !errors.Is(err, errOldVersion) {
		return nil, nil
	}
	db, err := meta.LoadDocument(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	db.SealVersions(lsn)
	v := db.ReadView()
	defer v.Close()
	var buf bytes.Buffer
	err = writeCheckpoint(&buf, v, db.CurrentTerm())
	return buf.Bytes(), err
}
