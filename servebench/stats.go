package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ppj/internal/server/wal"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// storeSize is what a durable fleet left on disk.
type storeSize struct {
	total      int64 // every file under the store directory
	walBytes   int64 // every shard's wal.log
	walRecords int64 // records wal.Replay decodes from them
	results    int64 // files under every shard's results directory
}

// storeSizes measures the fleet store under dir (shard-<i>/ per shard).
func storeSizes(dir string) (storeSize, error) {
	var st storeSize
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		st.total += info.Size()
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		parts := strings.Split(filepath.ToSlash(rel), "/")
		switch {
		case len(parts) == 2 && parts[1] == wal.FileName:
			st.walBytes += info.Size()
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			recs, _ := wal.Replay(bufio.NewReader(f))
			st.walRecords += int64(len(recs))
		case len(parts) > 2 && parts[1] == "results":
			st.results += info.Size()
		}
		return nil
	})
	return st, err
}
