package workloads

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// goldenStats pins the JSON encoding of every workload's Stats (the payload
// of a store cluster record) at scale 0.01, seed 12345, on 1 and 4 slaves.
// Performance work on datagen, mapreduce or the workloads must leave every
// digest unchanged; only a deliberate change to a simulated result may
// update one, and it says so.
var goldenStats = map[string]string{
	"Sort/1":          "cecb9dbbca63d8f9",
	"Sort/4":          "f9e58c4ff21eaaae",
	"WordCount/1":     "1e7b60c0da664e58",
	"WordCount/4":     "126c1acafdd3b7c1",
	"Grep/1":          "9c028c81ca19d448",
	"Grep/4":          "7db27ce2a5873892",
	"Naive Bayes/1":   "4e091bf3985dc27e",
	"Naive Bayes/4":   "ddb047e619084ff0",
	"SVM/1":           "c667342e17c3e42e",
	"SVM/4":           "6b3e3ec0ad2e884e",
	"K-means/1":       "97fd2e2f077e1719",
	"K-means/4":       "610e840add2b8316",
	"Fuzzy K-means/1": "c8972cc33e131e16",
	"Fuzzy K-means/4": "d969223816df6877",
	"IBCF/1":          "fa1697c50168075c",
	"IBCF/4":          "641a49e8c0126235",
	"HMM/1":           "67b75887a9a6942e",
	"HMM/4":           "c75394345878df4d",
	"PageRank/1":      "c0a7679e5ad92081",
	"PageRank/4":      "e0bd3f993ef47a72",
	"Hive-bench/1":    "b0e93e7b003b8a0a",
	"Hive-bench/4":    "6844ceef3961078e",
}

func TestClusterStatsGolden(t *testing.T) {
	for _, w := range All() {
		for _, slaves := range []int{1, 4} {
			name := fmt.Sprintf("%s/%d", w.Name, slaves)
			st := runWorkload(t, w, slaves)
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got, want := fmt.Sprintf("%x", sum[:8]), goldenStats[name]; got != want {
				t.Errorf("%s: stats digest %s, want %s\n%+v", name, got, want, st)
			}
		}
	}
}
