package dataset

import (
	"fmt"
	"strings"
	"testing"

	"qdcbir/internal/img"
	"qdcbir/internal/store"
)

// labeledCorpus reassembles n rows of dim 4 labeled round-robin over keys
// subconcepts.
func labeledCorpus(t testing.TB, n, keys int) *Corpus {
	t.Helper()
	infos := make([]Info, n)
	for i := range infos {
		cat := fmt.Sprintf("c%d", i%keys)
		infos[i] = Info{ID: i, Category: cat, Subconcept: Key(cat, "s")}
	}
	st, err := store.FromBacking(4, make([]float64, 4*n))
	if err != nil {
		t.Fatal(err)
	}
	c, err := ReassembleStore(infos, st)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestValidateCatchesCorruption pins every inconsistency Validate reports:
// an image missing from the subconcept index, listed twice, listed under a
// key that is not its label, or carrying an ID that is not its row.
func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(c *Corpus)
		want    string
	}{
		{"missing", func(c *Corpus) {
			k := c.Infos[4].Subconcept
			c.bySubconcept[k] = c.bySubconcept[k][1:] // drops image 1
		}, "image 1 missing from subconcept index"},
		{"listed twice", func(c *Corpus) {
			k := c.Infos[1].Subconcept
			c.bySubconcept[k] = append(c.bySubconcept[k], 1)
		}, "lists image 1 after image"},
		{"listed twice, missing another", func(c *Corpus) {
			k := c.Infos[1].Subconcept
			c.bySubconcept[k][1] = 1
		}, "lists image 1 after image 1"},
		{"wrong key", func(c *Corpus) {
			from, to := c.Infos[1].Subconcept, c.Infos[2].Subconcept
			c.bySubconcept[from] = c.bySubconcept[from][1:]
			c.bySubconcept[to] = append([]int{1}, c.bySubconcept[to]...)
		}, "image 1 listed under subconcept"},
		{"unknown image", func(c *Corpus) {
			k := c.Infos[0].Subconcept
			c.bySubconcept[k] = append(c.bySubconcept[k], 999)
		}, "lists unknown image 999"},
		{"mismatched ID", func(c *Corpus) { c.Infos[5].ID = 6 }, "info 5 has ID 6"},
		{"vector count", func(c *Corpus) { c.Vectors = c.Vectors[1:] }, "vectors for"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := labeledCorpus(t, 30, 3)
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(c)
			err := c.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestReassembleStoresChannels: the original channel aliases the main
// store, the others adopt their stores, and a channel of the wrong shape is
// refused.
func TestReassembleStoresChannels(t *testing.T) {
	infos := labeledCorpus(t, 10, 2).Infos
	main, _ := store.FromBacking(4, make([]float64, 40))
	gray, _ := store.FromBacking(4, make([]float64, 40))
	c, err := ReassembleStores(infos, main, map[img.Channel]*store.FeatureStore{img.ChannelOriginal: nil, img.ChannelGray: gray})
	if err != nil {
		t.Fatal(err)
	}
	if c.ChannelStores()[img.ChannelOriginal] != main || c.ChannelStores()[img.ChannelGray] != gray ||
		&c.ChannelVectors[img.ChannelOriginal][0][0] != &c.Vectors[0][0] {
		t.Fatal("channel stores not adopted as given")
	}
	short, _ := store.FromBacking(4, make([]float64, 36))
	if _, err := ReassembleStores(infos, main, map[img.Channel]*store.FeatureStore{img.ChannelGray: short}); err == nil {
		t.Fatal("a 9-row channel of a 10-row corpus was accepted")
	}
}

// BenchmarkReassembleUnlabeled reassembles an unlabeled import, whose rows
// all share one subconcept: Validate is linear, so the cost per row stays
// flat from 5k to 80k rows.
func BenchmarkReassembleUnlabeled(b *testing.B) {
	for _, n := range []int{5000, 20000, 80000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			infos := make([]Info, n)
			for i := range infos {
				infos[i] = Info{ID: i, Category: "unlabeled", Subconcept: Key("unlabeled", "unlabeled")}
			}
			st, err := store.FromBacking(4, make([]float64, 4*n))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReassembleStore(infos, st); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
