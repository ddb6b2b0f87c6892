// Package kmeans implements unsupervised k-means clustering with k-means++
// seeding, Lloyd iterations, and empty-cluster reseeding.
//
// The paper uses "an unsupervised k-mean clustering algorithm" (§3.1) twice:
// to split each RFS leaf into subclusters before representative selection,
// and again at every internal node over the aggregated child representatives.
// The MARS-style multipoint-query baseline also clusters the relevant images
// from user feedback. Both callers inject a *rand.Rand so results are
// reproducible.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"

	"qdcbir/internal/vec"
)

// Config controls a clustering run. The zero value is completed with sane
// defaults by Cluster.
type Config struct {
	// MaxIter bounds the Lloyd iterations. Default 50.
	MaxIter int
	// Tol stops iteration early when no centroid moves more than Tol
	// (Euclidean). Default 1e-6.
	Tol float64
}

func (c Config) withDefaults() Config {
	if c.MaxIter <= 0 {
		c.MaxIter = 50
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	return c
}

// Result is the output of a clustering run.
type Result struct {
	K         int          // actual number of clusters produced (≤ requested k)
	Centroids []vec.Vector // len K
	Assign    []int        // Assign[i] is the cluster of points[i], in [0, K)
	Inertia   float64      // sum of squared distances to assigned centroids
	Iters     int          // Lloyd iterations performed
}

// Members returns the indices of the points assigned to cluster c.
func (r *Result) Members(c int) []int {
	var m []int
	for i, a := range r.Assign {
		if a == c {
			m = append(m, i)
		}
	}
	return m
}

// Sizes returns the number of points in each cluster.
func (r *Result) Sizes() []int {
	s := make([]int, r.K)
	for _, a := range r.Assign {
		s[a]++
	}
	return s
}

// Cluster partitions points into at most k clusters. If k >= len(points) each
// point becomes its own cluster. It panics on k < 1 or an empty point set.
func Cluster(points []vec.Vector, k int, cfg Config, rng *rand.Rand) *Result {
	if k < 1 {
		panic(fmt.Sprintf("kmeans: invalid k=%d", k))
	}
	if len(points) == 0 {
		panic("kmeans: empty point set")
	}
	cfg = cfg.withDefaults()

	if k >= len(points) {
		// Degenerate case: every point is its own centroid.
		r := &Result{K: len(points), Assign: make([]int, len(points))}
		for i, p := range points {
			r.Centroids = append(r.Centroids, p.Clone())
			r.Assign[i] = i
		}
		return r
	}

	dim := len(points[0])
	for _, p := range points {
		if len(p) != dim {
			panic(fmt.Sprintf("kmeans: dims %d != %d", len(p), dim))
		}
	}

	// d and scratch hold one distance per point for the lane passes.
	d, scratch := make([]float64, len(points)), make([]float64, len(points))
	centroids := seedPlusPlus(points, k, rng, d, scratch)
	assign := make([]int, len(points))
	counts := make([]int, k)

	var iters int
	for iters = 1; iters <= cfg.MaxIter; iters++ {
		assignNearest(points, centroids, assign, d, scratch)
		// Update step.
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
				// Empty cluster: reseed at the point farthest from its
				// current centroid to break the degeneracy.
				centroids[c] = farthestPoint(points, centroids, assign, d).Clone()
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

	ownDists(points, centroids, assign, d)
	var inertia float64
	for _, di := range d {
		inertia += di
	}
	return &Result{K: k, Centroids: centroids, Assign: assign, Inertia: inertia, Iters: iters}
}

// assignNearest sets assign[i] to the centroid nearest points[i], the
// lowest index on ties, and d[i] to its squared distance: what the scalar
// scan over the centroids in order finds. Nearest scores the centroids four
// to a kernel call; the k%4 left over are each scored against four points
// per call, after the others, so every point still meets its centroids in
// index order. scratch is a per-point buffer.
func assignNearest(points, centroids []vec.Vector, assign []int, d, scratch []float64) {
	k4 := len(centroids) &^ 3
	for i, p := range points {
		best, bestD := Nearest(p, centroids[:k4])
		assign[i], d[i] = max(best, 0), bestD
	}
	for c := k4; c < len(centroids); c++ {
		sqDistsTo(centroids[c], points, scratch)
		for i, di := range scratch {
			if di < d[i] {
				assign[i], d[i] = c, di
			}
		}
	}
}

// Nearest returns the index of the centroid nearest p, the lowest on ties,
// and its squared distance, four centroids per vec.SqL2x4 call: what the
// scalar scan over the centroids in order finds, bit for bit. It returns -1
// and +Inf when no distance is below +Inf.
func Nearest(p vec.Vector, centroids []vec.Vector) (int, float64) {
	best, bestD := -1, math.Inf(1)
	c := 0
	for ; c+4 <= len(centroids); c += 4 {
		d0, d1, d2, d3 := vec.SqL2x4(p, centroids[c], centroids[c+1], centroids[c+2], centroids[c+3])
		if d0 < bestD {
			best, bestD = c, d0
		}
		if d1 < bestD {
			best, bestD = c+1, d1
		}
		if d2 < bestD {
			best, bestD = c+2, d2
		}
		if d3 < bestD {
			best, bestD = c+3, d3
		}
	}
	for ; c < len(centroids); c++ {
		if d := vec.SqL2(p, centroids[c]); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// sqDistsTo sets out[i] = vec.SqL2(points[i], c), four points per kernel
// call. A lane computes c - p where SqL2 computes p - c; the two differences
// are exact negations of each other, so every square and sum is the same bit
// for bit.
func sqDistsTo(c vec.Vector, points []vec.Vector, out []float64) {
	i := 0
	for ; i+4 <= len(points); i += 4 {
		out[i], out[i+1], out[i+2], out[i+3] = vec.SqL2x4(c, points[i], points[i+1], points[i+2], points[i+3])
	}
	for ; i < len(points); i++ {
		out[i] = vec.SqL2(points[i], c)
	}
}

// ownDists sets out[i] = vec.SqL2(points[i], centroids[assign[i]]), scoring
// each centroid's members together, four per kernel call.
func ownDists(points, centroids []vec.Vector, assign []int, out []float64) {
	members := make([][]int, len(centroids))
	for i, c := range assign {
		members[c] = append(members[c], i)
	}
	pts := make([]vec.Vector, 0, len(points))
	d := make([]float64, len(points))
	for c, m := range members {
		pts = pts[:0]
		for _, i := range m {
			pts = append(pts, points[i])
		}
		sqDistsTo(centroids[c], pts, d)
		for j, i := range m {
			out[i] = d[j]
		}
	}
}

// seedPlusPlus performs k-means++ initialization: the first centroid is
// uniform-random, subsequent centroids are drawn with probability
// proportional to squared distance from the nearest chosen centroid.
// d2 and scratch are per-point buffers.
func seedPlusPlus(points []vec.Vector, k int, rng *rand.Rand, d2, scratch []float64) []vec.Vector {
	centroids := make([]vec.Vector, 0, k)
	centroids = append(centroids, points[rng.Intn(len(points))].Clone())
	sqDistsTo(centroids[0], points, d2)
	for len(centroids) < k {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var next int
		if total == 0 {
			// All remaining points coincide with a centroid; pick uniformly.
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
		sqDistsTo(c, points, scratch)
		for i, d := range scratch {
			if d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

// farthestPoint returns the point with the largest distance to its assigned
// centroid; used to reseed empty clusters. d is a per-point buffer.
func farthestPoint(points []vec.Vector, centroids []vec.Vector, assign []int, d []float64) vec.Vector {
	ownDists(points, centroids, assign, d)
	best, bestD := 0, -1.0
	for i, di := range d {
		if di > bestD {
			best, bestD = i, di
		}
	}
	return points[best]
}

// NearestToCentroids returns, for each centroid, the index of the member
// point closest to it (the paper's representative-image rule: "the images
// nearest these k-mean-cluster centers are selected as the representative
// images"). Clusters with no members yield no entry.
func NearestToCentroids(points []vec.Vector, r *Result) []int {
	best := make([]int, r.K)
	bestD := make([]float64, r.K)
	for c := range best {
		best[c] = -1
		bestD[c] = math.Inf(1)
	}
	for i, d := range AssignedSqDists(points, r) {
		if c := r.Assign[i]; d < bestD[c] {
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

// AssignedSqDists returns each point's squared distance to the centroid it
// is assigned to, vec.SqL2(points[i], r.Centroids[r.Assign[i]]) bit for bit,
// scored four points per kernel call.
func AssignedSqDists(points []vec.Vector, r *Result) []float64 {
	out := make([]float64, len(points))
	ownDists(points, r.Centroids, r.Assign, out)
	return out
}
