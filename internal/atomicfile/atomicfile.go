// Package atomicfile commits a file in one step, so a reader never sees it
// half written: checkpoints, shard-cache and spill entries, model bundles and
// the corpus manifest all become visible through Write.
//
// The rule lives here and nowhere else. The bytes go to a temp file in the
// target's directory, named "." + the target's name without its extension +
// "-*" (corpus.json writes .corpus-*, which corpus.Reader.Orphans reports),
// and the rename onto the target is the commit point: a crash before it
// leaves at most an orphaned dot-file that no loader reads. There is no
// fsync, so a commit survives a process kill but not necessarily a power
// loss.
package atomicfile

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Write creates or replaces path with the bytes fill writes, through a
// buffered writer that Write flushes itself, and returns how many bytes it
// committed. When fill or any file operation fails, the temp file is removed,
// the target is left as it was, and the error is returned as is.
func Write(path string, fill func(io.Writer) error) (int64, error) {
	name := filepath.Base(path)
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+strings.TrimSuffix(name, filepath.Ext(name))+"-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriterSize(tmp, 64<<10)
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	var n int64
	if err == nil {
		n, err = tmp.Seek(0, io.SeekCurrent)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}
