package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoad holds the loader to its contract on hostile input: Load never
// panics, whatever the bytes, and Compile never panics on a scenario Load
// accepted. The corpus is seeded with every scenario file in the repository
// (the library, the open schedules and the benchmark workloads).
//
//	go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 20s ./internal/scenario
func FuzzLoad(f *testing.F) {
	for _, pattern := range []string{"scenarios/*.json", "scenarios/open/*.json", "bench/workloads/*.json"} {
		paths, err := filepath.Glob(filepath.Join("..", "..", pattern))
		if err != nil {
			f.Fatal(err)
		}
		if len(paths) == 0 {
			f.Fatalf("no seed files match %s", pattern)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(data, "fuzz.json")
		if err != nil {
			return
		}
		Compile(s, "fuzz.json")
	})
}
