package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// provenance records what produced a result.
type provenance struct {
	Commit       string         `json:"commit"`
	SourceSHA256 string         `json:"source_sha256"`
	GoVersion    string         `json:"go_version"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	NumCPU       int            `json:"nproc"`
	OS           string         `json:"os_arch"`
	SyncPolicy   string         `json:"changelog_sync"`
	DataFS       string         `json:"data_dir_filesystem"`
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      int            `json:"seconds"`
	Traced       bool           `json:"traced"`
	RateOpsPerS  float64        `json:"rate_ops_per_s"`
	Params       map[string]any `json:"params"`
}

func newProvenance(s *spec, seed int64, seconds int, traced bool, dataDir string) provenance {
	return provenance{
		Commit:       commit(),
		SourceSHA256: sourceDigest("."),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		OS:           runtime.GOOS + "/" + runtime.GOARCH,
		SyncPolicy:   syncPolicyName,
		DataFS:       filesystem(dataDir),
		Workload:     s.name,
		Seed:         seed,
		Seconds:      seconds,
		Traced:       traced,
		RateOpsPerS:  s.rate,
		Params:       s.params,
	}
}

// commit is the checked-out git commit, when the tree is a git checkout
// and git is installed; a plain source tree has none (see source_sha256).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and module files under root (paths
// and contents, in path order), which identifies the code measured even
// without git metadata. Build output directories are skipped.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// filesystem names the filesystem holding dir (fsync cost depends on it).
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x2FC12FC1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
		0x858458f6: "ramfs", 0x01021997: "v9fs", 0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
