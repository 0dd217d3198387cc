package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// host records where a result was measured.
type host struct {
	name, cpu, goVersion, commit string
	nproc, gomaxprocs            int
}

func hostInfo() host {
	name, err := os.Hostname()
	if err != nil {
		name = "unknown"
	}
	return host{
		name:       name,
		cpu:        cpuModel(),
		goVersion:  runtime.Version(),
		commit:     commit(),
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
	}
}

func (h host) String() string {
	return fmt.Sprintf("name=%s cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		h.name, h.cpu, h.nproc, h.gomaxprocs, h.goVersion, h.commit)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary when it was built
// inside a git work tree; otherwise a digest of the module's Go sources
// and go.mod files under the working directory, which identifies the code
// just as well for comparing two results.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		files++
		return nil
	})
	if err != nil || files == 0 {
		return "unknown"
	}
	return fmt.Sprintf("source-sha256:%x", h.Sum(nil)[:8])
}
