package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qdcbir/internal/vec"
)

// blob generates n points around center with the given spread.
func blob(rng *rand.Rand, center vec.Vector, n int, spread float64) []vec.Vector {
	out := make([]vec.Vector, n)
	for i := range out {
		p := center.Clone()
		for j := range p {
			p[j] += rng.NormFloat64() * spread
		}
		out[i] = p
	}
	return out
}

func TestClusterSeparatedBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	centers := []vec.Vector{{0, 0}, {10, 10}, {-10, 10}}
	var pts []vec.Vector
	for _, c := range centers {
		pts = append(pts, blob(rng, c, 30, 0.5)...)
	}
	r := Cluster(pts, 3, Config{}, rng)
	if r.K != 3 {
		t.Fatalf("K = %d", r.K)
	}
	// Every blob must be pure: all 30 members share one label.
	for b := 0; b < 3; b++ {
		label := r.Assign[b*30]
		for i := b * 30; i < (b+1)*30; i++ {
			if r.Assign[i] != label {
				t.Fatalf("blob %d split: point %d has label %d, expected %d", b, i, r.Assign[i], label)
			}
		}
	}
	// Each centroid lies near one of the true centers.
	for _, ctr := range r.Centroids {
		_, d := vec.NearestIndex(ctr, centers, vec.L2)
		if d > 0.5 {
			t.Errorf("centroid %v far from every true center (d=%v)", ctr, d)
		}
	}
}

func TestClusterInvalidInputsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"k=0":   func() { Cluster([]vec.Vector{{1}}, 0, Config{}, rand.New(rand.NewSource(1))) },
		"empty": func() { Cluster(nil, 2, Config{}, rand.New(rand.NewSource(1))) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestClusterKGreaterThanN(t *testing.T) {
	pts := []vec.Vector{{1, 1}, {2, 2}}
	r := Cluster(pts, 5, Config{}, rand.New(rand.NewSource(2)))
	if r.K != 2 {
		t.Fatalf("K = %d, want one cluster per point", r.K)
	}
	for i := range pts {
		if r.Assign[i] != i {
			t.Errorf("Assign[%d] = %d", i, r.Assign[i])
		}
		if !r.Centroids[i].Equal(pts[i]) {
			t.Errorf("Centroid[%d] = %v", i, r.Centroids[i])
		}
	}
	// Centroids must be copies, not aliases.
	r.Centroids[0][0] = 99
	if pts[0][0] == 99 {
		t.Error("centroid aliases input point")
	}
}

func TestClusterSinglePoint(t *testing.T) {
	r := Cluster([]vec.Vector{{3, 4}}, 1, Config{}, rand.New(rand.NewSource(3)))
	if r.K != 1 || !r.Centroids[0].Equal(vec.Vector{3, 4}) || r.Inertia != 0 {
		t.Fatalf("bad single-point result: %+v", r)
	}
}

func TestClusterIdenticalPoints(t *testing.T) {
	pts := make([]vec.Vector, 20)
	for i := range pts {
		pts[i] = vec.Vector{5, 5}
	}
	r := Cluster(pts, 3, Config{}, rand.New(rand.NewSource(4)))
	if r.Inertia != 0 {
		t.Errorf("inertia = %v on identical points", r.Inertia)
	}
	for _, c := range r.Centroids {
		if !c.Equal(vec.Vector{5, 5}) {
			t.Errorf("centroid drifted: %v", c)
		}
	}
}

func TestAssignmentsAreNearestCentroid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := blob(rng, vec.Vector{0, 0, 0}, 100, 3)
	r := Cluster(pts, 4, Config{}, rng)
	for i, p := range pts {
		want, _ := vec.NearestIndex(p, r.Centroids, vec.SqL2)
		got := r.Assign[i]
		// Ties can legitimately differ; accept equal distance.
		if got != want && vec.SqL2(p, r.Centroids[got]) > vec.SqL2(p, r.Centroids[want])+1e-12 {
			t.Errorf("point %d assigned to %d but %d is closer", i, got, want)
		}
	}
}

func TestCentroidsAreClusterMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := blob(rng, vec.Vector{1, 2}, 60, 2)
	r := Cluster(pts, 3, Config{MaxIter: 100}, rng)
	for c := 0; c < r.K; c++ {
		members := r.Members(c)
		if len(members) == 0 {
			continue
		}
		var mv []vec.Vector
		for _, i := range members {
			mv = append(mv, pts[i])
		}
		mean := vec.Centroid(mv)
		if vec.L2(mean, r.Centroids[c]) > 1e-6 {
			t.Errorf("centroid %d = %v, member mean = %v", c, r.Centroids[c], mean)
		}
	}
}

func TestInertiaDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pts []vec.Vector
	for i := 0; i < 4; i++ {
		pts = append(pts, blob(rng, vec.Vector{float64(i * 8), 0}, 25, 0.7)...)
	}
	var prev = math.Inf(1)
	for _, k := range []int{1, 2, 4} {
		r := Cluster(pts, k, Config{MaxIter: 100}, rand.New(rand.NewSource(8)))
		if r.Inertia > prev+1e-9 {
			t.Errorf("inertia increased at k=%d: %v > %v", k, r.Inertia, prev)
		}
		prev = r.Inertia
	}
}

func TestDeterminismWithSameSeed(t *testing.T) {
	rng1 := rand.New(rand.NewSource(9))
	rng2 := rand.New(rand.NewSource(9))
	pts := blob(rand.New(rand.NewSource(10)), vec.Vector{0, 0}, 50, 5)
	r1 := Cluster(pts, 4, Config{}, rng1)
	r2 := Cluster(pts, 4, Config{}, rng2)
	for i := range r1.Assign {
		if r1.Assign[i] != r2.Assign[i] {
			t.Fatalf("nondeterministic assignment at %d", i)
		}
	}
}

func TestSizesAndMembersConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := blob(rng, vec.Vector{0, 0}, 40, 4)
	r := Cluster(pts, 5, Config{}, rng)
	sizes := r.Sizes()
	var total int
	for c, s := range sizes {
		if got := len(r.Members(c)); got != s {
			t.Errorf("cluster %d: Sizes=%d Members=%d", c, s, got)
		}
		total += s
	}
	if total != len(pts) {
		t.Errorf("sizes sum to %d, want %d", total, len(pts))
	}
}

func TestNearestToCentroids(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	centers := []vec.Vector{{0, 0}, {20, 20}}
	pts := append(blob(rng, centers[0], 20, 1), blob(rng, centers[1], 20, 1)...)
	r := Cluster(pts, 2, Config{}, rng)
	reps := NearestToCentroids(pts, r)
	if len(reps) != 2 {
		t.Fatalf("got %d representatives", len(reps))
	}
	for _, rep := range reps {
		c := r.Assign[rep]
		for i, p := range pts {
			if r.Assign[i] == c && vec.SqL2(p, r.Centroids[c]) < vec.SqL2(pts[rep], r.Centroids[c])-1e-12 {
				t.Errorf("point %d closer to centroid %d than chosen rep %d", i, c, rep)
			}
		}
	}
}

func TestEmptyClusterReseeding(t *testing.T) {
	// Duplicated points plus one outlier make empty clusters likely; the run
	// must still terminate with valid assignments.
	pts := make([]vec.Vector, 0, 21)
	for i := 0; i < 20; i++ {
		pts = append(pts, vec.Vector{0, 0})
	}
	pts = append(pts, vec.Vector{100, 100})
	r := Cluster(pts, 3, Config{MaxIter: 30}, rand.New(rand.NewSource(13)))
	for i, a := range r.Assign {
		if a < 0 || a >= r.K {
			t.Fatalf("invalid assignment %d for point %d", a, i)
		}
	}
	// The outlier should sit alone near its own centroid.
	out := r.Assign[20]
	if vec.L2(r.Centroids[out], vec.Vector{100, 100}) > 1e-6 {
		t.Errorf("outlier centroid = %v", r.Centroids[out])
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MaxIter != 50 || c.Tol != 1e-6 {
		t.Errorf("defaults = %+v", c)
	}
	c = Config{MaxIter: 7, Tol: 0.5}.withDefaults()
	if c.MaxIter != 7 || c.Tol != 0.5 {
		t.Errorf("explicit config overridden: %+v", c)
	}
}

// Property: Lloyd iterations never increase inertia (checked by running with
// increasing MaxIter on the same seed).
func TestInertiaMonotoneInIterations(t *testing.T) {
	pts := blob(rand.New(rand.NewSource(14)), vec.Vector{0, 0, 0, 0}, 120, 6)
	prev := math.Inf(1)
	for _, iters := range []int{1, 2, 5, 20} {
		r := Cluster(pts, 6, Config{MaxIter: iters, Tol: 1e-300}, rand.New(rand.NewSource(15)))
		if r.Inertia > prev+1e-6 {
			t.Errorf("inertia increased at MaxIter=%d: %v > %v", iters, r.Inertia, prev)
		}
		prev = r.Inertia
	}
}

// refCluster is Cluster as it reads with one scalar vec.SqL2 call per
// (point, centroid) pair: the reference the four-lane passes must equal.
func refCluster(points []vec.Vector, k int, cfg Config, rng *rand.Rand) *Result {
	cfg = cfg.withDefaults()
	if k >= len(points) {
		r := &Result{K: len(points), Assign: make([]int, len(points))}
		for i, p := range points {
			r.Centroids = append(r.Centroids, p.Clone())
			r.Assign[i] = i
		}
		return r
	}
	centroids := refSeedPlusPlus(points, k, rng)
	assign := make([]int, len(points))
	counts := make([]int, k)
	var iters int
	for iters = 1; iters <= cfg.MaxIter; iters++ {
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centroids {
				if d := vec.SqL2(p, ctr); d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
		}
		dim := len(points[0])
		sums := make([]vec.Vector, k)
		for c := range sums {
			sums[c] = make(vec.Vector, dim)
			counts[c] = 0
		}
		for i, p := range points {
			sums[assign[i]].AddInPlace(p)
			counts[assign[i]]++
		}
		var maxMove float64
		for c := range centroids {
			if counts[c] == 0 {
				centroids[c] = refFarthestPoint(points, centroids, assign).Clone()
				maxMove = math.Inf(1)
				continue
			}
			sums[c].ScaleInPlace(1 / float64(counts[c]))
			move := vec.L2(centroids[c], sums[c])
			if move > maxMove {
				maxMove = move
			}
			centroids[c] = sums[c]
		}
		if maxMove <= cfg.Tol {
			break
		}
	}
	if iters > cfg.MaxIter {
		iters = cfg.MaxIter
	}
	var inertia float64
	for i, p := range points {
		inertia += vec.SqL2(p, centroids[assign[i]])
	}
	return &Result{K: k, Centroids: centroids, Assign: assign, Inertia: inertia, Iters: iters}
}

func refSeedPlusPlus(points []vec.Vector, k int, rng *rand.Rand) []vec.Vector {
	centroids := make([]vec.Vector, 0, k)
	centroids = append(centroids, points[rng.Intn(len(points))].Clone())
	d2 := make([]float64, len(points))
	for i, p := range points {
		d2[i] = vec.SqL2(p, centroids[0])
	}
	for len(centroids) < k {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var next int
		if total == 0 {
			next = rng.Intn(len(points))
		} else {
			target := rng.Float64() * total
			var acc float64
			for i, d := range d2 {
				acc += d
				if acc >= target {
					next = i
					break
				}
			}
		}
		c := points[next].Clone()
		centroids = append(centroids, c)
		for i, p := range points {
			if d := vec.SqL2(p, c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

func refFarthestPoint(points []vec.Vector, centroids []vec.Vector, assign []int) vec.Vector {
	best, bestD := 0, -1.0
	for i, p := range points {
		if d := vec.SqL2(p, centroids[assign[i]]); d > bestD {
			best, bestD = i, d
		}
	}
	return points[best]
}

func refNearestToCentroids(points []vec.Vector, r *Result) []int {
	best := make([]int, r.K)
	bestD := make([]float64, r.K)
	for c := range best {
		best[c] = -1
		bestD[c] = math.Inf(1)
	}
	for i, p := range points {
		c := r.Assign[i]
		if d := vec.SqL2(p, r.Centroids[c]); d < bestD[c] {
			best[c], bestD[c] = i, d
		}
	}
	out := best[:0]
	for _, i := range best {
		if i >= 0 {
			out = append(out, i)
		}
	}
	return out
}

// lanePoints draws n points of dim components. With distinct > 0 they are
// copies of that many base points, so distances tie and clusters empty out.
func lanePoints(rng *rand.Rand, n, dim, distinct int) []vec.Vector {
	m := n
	if distinct > 0 {
		m = distinct
	}
	base := make([]vec.Vector, m)
	for i := range base {
		base[i] = make(vec.Vector, dim)
		for j := range base[i] {
			base[i][j] = rng.NormFloat64() * float64(1+i%3)
		}
	}
	out := make([]vec.Vector, n)
	for i := range out {
		out[i] = base[rng.Intn(len(base))].Clone()
	}
	if distinct == 0 {
		out = base
	}
	return out
}

// TestClusterLanesMatchScalar: Cluster and NearestToCentroids, whose
// distance passes score four centroids or four points per kernel call,
// equal the scalar reference bit for bit — assignments, centroid and inertia
// bits, iteration counts and representatives — over sizes, cluster counts
// and dimensions that are not multiples of four (k < 4 included), with and
// without duplicate points.
func TestClusterLanesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{2, 5, 7, 13, 34, 101} {
		for _, k := range []int{1, 2, 3, 4, 5, 7, 9, 13} {
			for _, dim := range []int{1, 3, 4, 5, 17, 37} {
				for _, distinct := range []int{0, 1, 3, 6} {
					pts := lanePoints(rng, n, dim, distinct)
					seed := rng.Int63()
					cfg := Config{MaxIter: 1 + int(seed%30)}
					want := refCluster(pts, k, cfg, rand.New(rand.NewSource(seed)))
					got := Cluster(pts, k, cfg, rand.New(rand.NewSource(seed)))
					tag := fmt.Sprintf("n=%d k=%d dim=%d distinct=%d", n, k, dim, distinct)
					sameResult(t, tag, got, want)
					if g, w := NearestToCentroids(pts, got), refNearestToCentroids(pts, want); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s: NearestToCentroids %v, scalar %v", tag, g, w)
					}
				}
			}
		}
	}
}

func sameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.K != want.K || got.Iters != want.Iters || !reflect.DeepEqual(got.Assign, want.Assign) {
		t.Fatalf("%s: K=%d iters=%d assign=%v, scalar K=%d iters=%d assign=%v",
			tag, got.K, got.Iters, got.Assign, want.K, want.Iters, want.Assign)
	}
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		t.Fatalf("%s: inertia %v, scalar %v", tag, got.Inertia, want.Inertia)
	}
	for c := range want.Centroids {
		for j, x := range want.Centroids[c] {
			if math.Float64bits(got.Centroids[c][j]) != math.Float64bits(x) {
				t.Fatalf("%s: centroid %d[%d] = %v, scalar %v", tag, c, j, got.Centroids[c][j], x)
			}
		}
	}
}
