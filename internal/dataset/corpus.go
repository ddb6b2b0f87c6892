package dataset

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"qdcbir/internal/feature"
	"qdcbir/internal/img"
	"qdcbir/internal/par"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// Info is the ground-truth record of one corpus image. Category and
// Subconcept play the role of the paper's expert-assigned Corel labels.
type Info struct {
	ID         int
	Category   string
	Subconcept string // canonical "category/subconcept" key
}

// Corpus is a built image database: normalized 37-d feature vectors plus
// ground truth, and optionally the rendered images and per-channel vectors
// for the Multiple Viewpoints baseline.
type Corpus struct {
	Infos   []Info
	Vectors []vec.Vector // normalized features, indexed by image ID

	// ChannelVectors holds, per MV colour channel, the normalized features
	// of the whole corpus viewed through that channel. Nil unless the corpus
	// was built with Options.WithChannels (image mode only).
	ChannelVectors map[img.Channel][]vec.Vector

	// Images holds the rendered rasters when Options.KeepImages is set.
	Images []*img.Image

	// Extractor normalizes future raw extractions against this corpus.
	Extractor *feature.Extractor

	// store holds the corpus vectors in one contiguous backing array;
	// Vectors aliases its rows as zero-copy views (see adoptStores). One
	// more store exists per non-original MV channel; the original channel
	// shares the main store, which is also what dedupes it out of archives.
	store         *store.FeatureStore
	channelStores map[img.Channel]*store.FeatureStore

	bySubconcept map[string][]int
	byCategory   map[string][]int
}

// adoptStores moves the corpus vector tables into flat feature stores and
// rebinds the public slices to zero-copy views of the contiguous backing.
// Every Build/Reassemble path ends here, so downstream consumers (RFS build,
// baselines, persistence) can always scan contiguous memory. Rebinding also
// restores the original-channel alias: even if ChannelVectors arrived with a
// separately materialized original table (version-0 archives persisted the
// duplicate), it leaves pointing at the main store.
func (c *Corpus) adoptStores() {
	c.store = store.FromVectors(c.Vectors)
	c.Vectors = c.store.Views()
	if c.ChannelVectors == nil {
		return
	}
	c.channelStores = make(map[img.Channel]*store.FeatureStore, len(c.ChannelVectors))
	for ch, vs := range c.ChannelVectors {
		if ch == img.ChannelOriginal {
			continue
		}
		st := store.FromVectors(vs)
		c.channelStores[ch] = st
		c.ChannelVectors[ch] = st.Views()
	}
	if _, ok := c.ChannelVectors[img.ChannelOriginal]; ok {
		c.channelStores[img.ChannelOriginal] = c.store
		c.ChannelVectors[img.ChannelOriginal] = c.Vectors
	}
}

// Store returns the corpus's flat feature store (the main 37-d features, or
// the raw vectors in vector mode), indexed by image ID.
func (c *Corpus) Store() *store.FeatureStore { return c.store }

// ChannelStores returns the per-channel store table (nil without channels).
// The map must not be modified.
func (c *Corpus) ChannelStores() map[img.Channel]*store.FeatureStore { return c.channelStores }

// Options configures Build.
type Options struct {
	// Seed drives per-image render jitter.
	Seed int64
	// KeepImages retains rendered rasters on the corpus (memory for a full
	// 15k corpus: ~100 MB; off by default).
	KeepImages bool
	// WithChannels also extracts features under the three non-original MV
	// channels, quadrupling extraction work. Required by the image-mode MV
	// baseline.
	WithChannels bool
	// Parallelism bounds the feature-extraction worker count (<= 0 uses one
	// worker per CPU). Rendering stays serial because it consumes the
	// build's random stream, so the corpus is byte-identical at every
	// worker count.
	Parallelism int
}

// Build renders the spec and extracts normalized features for every image.
func Build(spec Spec, opts Options) *Corpus {
	c, err := BuildCtx(context.Background(), spec, opts)
	if err != nil {
		panic(fmt.Sprintf("dataset: build: %v", err)) // unreachable: ctx never cancels
	}
	return c
}

// BuildCtx is Build with cancellation. The expensive half of the corpus
// build — 37-d feature extraction per image (×4 with channels) — runs on
// opts.Parallelism workers fed by a serial rendering producer, so the
// per-image random jitter stream is consumed in exactly the serial order and
// the resulting corpus is byte-identical at every worker count.
func BuildCtx(ctx context.Context, spec Spec, opts Options) (*Corpus, error) {
	total := spec.TotalImages()
	if total == 0 {
		panic("dataset: spec generates no images")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	c := &Corpus{
		bySubconcept: make(map[string][]int),
		byCategory:   make(map[string][]int),
	}
	raws := make([]vec.Vector, total)
	channelRaws := make(map[img.Channel][]vec.Vector)
	if opts.WithChannels {
		for _, ch := range img.AllChannels[1:] {
			channelRaws[ch] = make([]vec.Vector, total)
		}
	}
	if opts.KeepImages {
		c.Images = make([]*img.Image, total)
	}

	// Extraction workers drain a bounded queue so at most ~2 images per
	// worker are in flight; results land in index-addressed slots.
	p := par.N(opts.Parallelism)
	type job struct {
		idx int
		im  *img.Image
	}
	jobs := make(chan job, 2*p)
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				raws[j.idx] = feature.Extract(j.im)
				if opts.WithChannels {
					for _, ch := range img.AllChannels[1:] {
						channelRaws[ch][j.idx] = feature.ExtractChannel(j.im, ch)
					}
				}
				if opts.KeepImages {
					c.Images[j.idx] = j.im
				}
			}
		}()
	}

	id := 0
render:
	for _, cat := range spec.Categories {
		for _, sub := range cat.Subconcepts {
			key := Key(cat.Name, sub.Name)
			for i := 0; i < sub.Count; i++ {
				if ctx.Err() != nil {
					break render
				}
				im := Render(sub.Appearance, rng)
				c.Infos = append(c.Infos, Info{ID: id, Category: cat.Name, Subconcept: key})
				c.bySubconcept[key] = append(c.bySubconcept[key], id)
				c.byCategory[cat.Name] = append(c.byCategory[cat.Name], id)
				jobs <- job{idx: id, im: im}
				id++
			}
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	c.Extractor = feature.NewExtractor(raws)
	c.Vectors = make([]vec.Vector, len(raws))
	if err := par.Do(ctx, len(raws), opts.Parallelism, func(i int) error {
		c.Vectors[i] = c.Extractor.Normalize(raws[i])
		return nil
	}); err != nil {
		return nil, err
	}
	if opts.WithChannels {
		c.ChannelVectors = map[img.Channel][]vec.Vector{img.ChannelOriginal: c.Vectors}
		for _, ch := range img.AllChannels[1:] {
			// Each channel gets its own normalizer: a viewpoint is a full
			// feature representation of the database (French & Jin).
			ex := feature.NewExtractor(channelRaws[ch])
			vs := make([]vec.Vector, total)
			if err := par.Do(ctx, total, opts.Parallelism, func(i int) error {
				vs[i] = ex.Normalize(channelRaws[ch][i])
				return nil
			}); err != nil {
				return nil, err
			}
			c.ChannelVectors[ch] = vs
		}
	}
	c.adoptStores()
	return c, nil
}

// BuildVectors synthesizes a vector-mode corpus: each subconcept is a
// Gaussian blob in the unit hypercube of the given dimensionality. Ground
// truth bookkeeping is identical to image mode, so every engine and baseline
// runs unchanged; only the feature pipeline is bypassed. Used by the
// Fig 10/11 database-size sweeps.
func BuildVectors(spec Spec, dim int, spread float64, seed int64) *Corpus {
	if dim <= 0 {
		panic(fmt.Sprintf("dataset: invalid dim %d", dim))
	}
	if spread <= 0 {
		spread = 0.02
	}
	rng := rand.New(rand.NewSource(seed))
	c := &Corpus{
		bySubconcept: make(map[string][]int),
		byCategory:   make(map[string][]int),
	}
	id := 0
	for _, cat := range spec.Categories {
		for _, sub := range cat.Subconcepts {
			key := Key(cat.Name, sub.Name)
			center := make(vec.Vector, dim)
			for j := range center {
				center[j] = rng.Float64()
			}
			for i := 0; i < sub.Count; i++ {
				p := center.Clone()
				for j := range p {
					p[j] += rng.NormFloat64() * spread
				}
				c.Vectors = append(c.Vectors, p)
				c.Infos = append(c.Infos, Info{ID: id, Category: cat.Name, Subconcept: key})
				c.bySubconcept[key] = append(c.bySubconcept[key], id)
				c.byCategory[cat.Name] = append(c.byCategory[cat.Name], id)
				id++
			}
		}
	}
	if len(c.Vectors) == 0 {
		panic("dataset: spec generates no images")
	}
	c.adoptStores()
	return c
}

// Reassemble reconstructs a corpus from persisted parts: ground-truth infos,
// the vector table (usually recovered from an RFS snapshot), and optional
// per-channel vectors. It validates the result before returning.
func Reassemble(infos []Info, vectors []vec.Vector, channels map[img.Channel][]vec.Vector) (*Corpus, error) {
	c := &Corpus{Infos: infos, Vectors: vectors, ChannelVectors: channels}
	c.index()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c.adoptStores()
	return c, nil
}

// ReassembleStore is Reassemble for a corpus whose vectors already live in a
// flat feature store — an imported embedding batch or a decoded archive. The
// store is adopted as-is, preserving its precision tag and any native
// float32 backing, instead of being copied through FromVectors; the caller
// must not mutate it afterwards.
func ReassembleStore(infos []Info, st *store.FeatureStore) (*Corpus, error) {
	return ReassembleStores(infos, st, nil)
}

// ReassembleStores is ReassembleStore with MV colour channels: channels maps
// each channel to the store of its rows, adopted as-is like st; the original
// channel, when listed, is st itself. A nil map means no channels.
func ReassembleStores(infos []Info, st *store.FeatureStore, channels map[img.Channel]*store.FeatureStore) (*Corpus, error) {
	c := &Corpus{Infos: infos, Vectors: st.Views(), store: st}
	c.index()
	if channels != nil {
		c.ChannelVectors = make(map[img.Channel][]vec.Vector, len(channels))
		c.channelStores = make(map[img.Channel]*store.FeatureStore, len(channels))
		for ch, cst := range channels {
			if ch == img.ChannelOriginal {
				cst = st
			}
			if cst.Len() != st.Len() || cst.Dim() != st.Dim() {
				return nil, fmt.Errorf("dataset: channel %v holds %d rows of dim %d, the corpus %d of dim %d",
					ch, cst.Len(), cst.Dim(), st.Len(), st.Dim())
			}
			c.channelStores[ch] = cst
			c.ChannelVectors[ch] = cst.Views()
		}
		if _, ok := channels[img.ChannelOriginal]; ok {
			c.ChannelVectors[img.ChannelOriginal] = c.Vectors
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// index builds the subconcept and category lists from the infos, each in
// info order, carved from one array sized by a counting pass.
func (c *Corpus) index() {
	subN, catN := make(map[string]int), make(map[string]int)
	for _, info := range c.Infos {
		subN[info.Subconcept]++
		catN[info.Category]++
	}
	ids := make([]int, 0, 2*len(c.Infos))
	lists := func(counts map[string]int) map[string][]int {
		m := make(map[string][]int, len(counts))
		for k, n := range counts {
			m[k], ids = ids[len(ids):len(ids):len(ids)+n], ids[:len(ids)+n]
		}
		return m
	}
	c.bySubconcept, c.byCategory = lists(subN), lists(catN)
	for _, info := range c.Infos {
		c.bySubconcept[info.Subconcept] = append(c.bySubconcept[info.Subconcept], info.ID)
		c.byCategory[info.Category] = append(c.byCategory[info.Category], info.ID)
	}
}

// Len returns the number of images in the corpus.
func (c *Corpus) Len() int { return len(c.Infos) }

// SubconceptOf returns the subconcept key of an image, or "" for an unknown
// ID.
func (c *Corpus) SubconceptOf(id int) string {
	if id < 0 || id >= len(c.Infos) {
		return ""
	}
	return c.Infos[id].Subconcept
}

// CategoryOf returns the category of an image, or "" for an unknown ID.
func (c *Corpus) CategoryOf(id int) string {
	if id < 0 || id >= len(c.Infos) {
		return ""
	}
	return c.Infos[id].Category
}

// SubconceptIDs returns the image IDs of one subconcept (shared slice; do not
// modify).
func (c *Corpus) SubconceptIDs(key string) []int { return c.bySubconcept[key] }

// CategoryIDs returns the image IDs of one category (shared slice; do not
// modify).
func (c *Corpus) CategoryIDs(name string) []int { return c.byCategory[name] }

// Subconcepts returns all subconcept keys present in the corpus, sorted, so
// a seeded caller that indexes the list draws the same workload every run.
func (c *Corpus) Subconcepts() []string { return sortedKeys(c.bySubconcept) }

// Categories returns all category names present in the corpus, sorted.
func (c *Corpus) Categories() []string { return sortedKeys(c.byCategory) }

func sortedKeys(m map[string][]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RelevantSet returns the ground-truth image set of a query: the union of its
// target subconcepts.
func (c *Corpus) RelevantSet(q Query) map[int]bool {
	rel := make(map[int]bool)
	for _, t := range q.Targets {
		for _, id := range c.bySubconcept[t] {
			rel[id] = true
		}
	}
	return rel
}

// GroundTruthSize returns |RelevantSet(q)|. The paper retrieves exactly this
// many images per query, which makes precision equal recall.
func (c *Corpus) GroundTruthSize(q Query) int {
	n := 0
	for _, t := range q.Targets {
		n += len(c.bySubconcept[t])
	}
	return n
}

// Validate checks internal consistency (index maps vs infos, vector count,
// contiguous IDs) and returns the first problem found. It is one pass over
// the infos and one over the subconcept index, whose lists every
// constructor builds in ascending ID order.
func (c *Corpus) Validate() error {
	if len(c.Vectors) != len(c.Infos) {
		return fmt.Errorf("dataset: %d vectors for %d infos", len(c.Vectors), len(c.Infos))
	}
	for i, info := range c.Infos {
		if info.ID != i {
			return fmt.Errorf("dataset: info %d has ID %d", i, info.ID)
		}
	}
	// Every listed ID is in range, listed under its own label and listed
	// after a smaller one, so no image is listed twice; if the lists then
	// hold as many entries as there are images, none is missing.
	var indexed int
	for key, ids := range c.bySubconcept {
		for j, id := range ids {
			switch {
			case id < 0 || id >= len(c.Infos):
				return fmt.Errorf("dataset: subconcept index %q lists unknown image %d", key, id)
			case c.Infos[id].Subconcept != key:
				return fmt.Errorf("dataset: image %d listed under subconcept %q, labeled %q", id, key, c.Infos[id].Subconcept)
			case j > 0 && id <= ids[j-1]:
				return fmt.Errorf("dataset: subconcept index %q lists image %d after image %d", key, id, ids[j-1])
			}
		}
		indexed += len(ids)
	}
	if indexed != len(c.Infos) {
		for i, info := range c.Infos {
			if _, found := slices.BinarySearch(c.bySubconcept[info.Subconcept], i); !found {
				return fmt.Errorf("dataset: image %d missing from subconcept index %q", i, info.Subconcept)
			}
		}
		return fmt.Errorf("dataset: subconcept index holds %d entries for %d images", indexed, len(c.Infos)) // unreachable
	}
	return nil
}
