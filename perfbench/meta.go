package main

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"pathcover/internal/pram"
)

// hostStamp identifies what a report was measured on. The sequential
// cutover is timed once per process and changes which execution route
// the pipeline's phases take, so it explains outlying runs.
func hostStamp() string {
	return fmt.Sprintf("go=%s nproc=%d GOMAXPROCS=%d commit=%s pram.seq_cutover=%d",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit("."), pram.New(1).SeqCutover())
}

// commit names the source under test: the git HEAD when the checkout is
// a git repository, otherwise a digest of the Go sources.
func commit(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			return strings.TrimSpace(string(id))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("src-%x", h.Sum(nil)[:6])
}
