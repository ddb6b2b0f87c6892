package core

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// hit is a fake neighbour: an image ID and its distance to one subquery's
// centroid.
type hit struct {
	id   int
	dist float64
}

func claimHit(h hit) (int, float64, hit) { return h.id, h.dist, h }

// area builds a search area from (id, dist) pairs, ascending by (dist, id)
// as every backing's search returns it.
func area(pairs ...float64) []hit {
	var a []hit
	for i := 0; i+1 < len(pairs); i += 2 {
		a = append(a, hit{int(pairs[i]), pairs[i+1]})
	}
	sortHits(a)
	return a
}

func sortHits(a []hit) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].dist != a[j].dist {
			return a[i].dist < a[j].dist
		}
		return a[i].id < a[j].id
	})
}

// fakeBacking answers FinalRound's requests from fixed search areas, one per
// group, and logs every request it sees.
type fakeBacking struct {
	areas [][]hit
	whole bool // answer every request with the whole area
	calls [][]Request
}

func (b *fakeBacking) fetch(_ context.Context, reqs []Request) ([][]hit, error) {
	b.calls = append(b.calls, append([]Request(nil), reqs...))
	lists := make([][]hit, len(reqs))
	for i, r := range reqs {
		a := b.areas[r.Group]
		if !b.whole && r.Want < len(a) {
			a = a[:r.Want]
		}
		lists[i] = a
	}
	return lists, nil
}

// subqueriesFor describes one subquery per area, its Cap the area's size.
func subqueriesFor(counts []int, areas [][]hit) []Subquery {
	subs := make([]Subquery, len(counts))
	for g := range subs {
		subs[g] = Subquery{Group: g, Count: counts[g], Key: uint64(g), Cap: len(areas[g])}
	}
	return subs
}

// runFinalRound orders the subqueries and runs the tail over the areas,
// checking every property the tail promises. It returns the claims, the
// ordered subqueries and the backing's request log.
func runFinalRound(t *testing.T, k int, counts []int, areas [][]hit) ([]Claimed[hit], []Subquery, *fakeBacking) {
	t.Helper()
	subs := OrderSubqueries(subqueriesFor(counts, areas), k)
	b := &fakeBacking{areas: areas}
	claims, err := FinalRound(context.Background(), k, subs, b.fetch, claimHit)
	if err != nil {
		t.Fatal(err)
	}

	// The first fetch asks every subquery, in final order, for alloc+k.
	if len(b.calls) == 0 || len(b.calls[0]) != len(subs) {
		t.Fatalf("first fetch %v, want one request per subquery", b.calls)
	}
	for i, s := range subs {
		if r := b.calls[0][i]; r.Group != s.Group || r.Want != s.Alloc+k {
			t.Fatalf("first request %d = %+v, want group %d for %d", i, r, s.Group, s.Alloc+k)
		}
	}
	for _, c := range b.calls[1:] {
		if len(c) != 1 {
			t.Fatalf("top-up fetch with %d requests", len(c))
		}
	}

	// No image twice; the answer holds min(k, |union of areas|) images.
	union := map[int]bool{}
	for _, s := range subs {
		for _, h := range areas[s.Group] {
			union[h.id] = true
		}
	}
	seen := map[int]bool{}
	total := 0
	byGroup := map[int]Claimed[hit]{}
	for i, c := range claims {
		byGroup[c.Group] = c
		sum := 0.0
		for _, h := range c.Images {
			if seen[h.id] {
				t.Fatalf("image %d claimed twice", h.id)
			}
			seen[h.id] = true
			sum += h.dist
		}
		total += len(c.Images)
		if sum != c.RankScore {
			t.Fatalf("group %d rank score %v, images sum to %v", c.Group, c.RankScore, sum)
		}
		if i > 0 && c.RankScore < claims[i-1].RankScore {
			t.Fatalf("claims out of rank-score order at %d", i)
		}
	}
	if want := min(k, len(union)); total != want {
		t.Fatalf("%d images, want min(k=%d, |union|=%d) = %d", total, k, len(union), want)
	}

	// Each group's images open with its alloc nearest rows that no earlier
	// group claimed, and every image lies in its own search area.
	claimed := map[int]bool{}
	for _, s := range subs {
		var want []hit
		for _, h := range areas[s.Group] {
			if len(want) == s.Alloc {
				break
			}
			if !claimed[h.id] {
				want = append(want, h)
			}
		}
		got := byGroup[s.Group].Images
		if len(got) < len(want) || !reflect.DeepEqual(got[:len(want)], want) {
			t.Fatalf("group %d (alloc %d) opens with %v, want %v", s.Group, s.Alloc, got, want)
		}
		for _, h := range want {
			claimed[h.id] = true
		}
		in := map[int]bool{}
		for _, h := range areas[s.Group] {
			in[h.id] = true
		}
		for _, h := range got {
			if !in[h.id] {
				t.Fatalf("group %d claimed %d from outside its area", s.Group, h.id)
			}
		}
	}

	// Prefix consistency: asking every subquery for its whole area instead
	// of alloc+k changes nothing.
	wholeSubs := OrderSubqueries(subqueriesFor(counts, areas), k)
	whole, err := FinalRound(context.Background(), k, wholeSubs, (&fakeBacking{areas: areas, whole: true}).fetch, claimHit)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, claims) {
		t.Fatalf("whole-area answer differs:\n  alloc+k %v\n  whole   %v", claims, whole)
	}
	return claims, subs, b
}

// TestFinalRoundTopUp overlaps two search areas so the second group finds
// most of its area claimed: the first group tops up the shortfall.
func TestFinalRoundTopUp(t *testing.T) {
	areas := [][]hit{
		area(1, 0.1, 2, 0.2, 3, 0.3, 4, 0.4, 5, 0.5, 6, 0.6, 7, 0.7),
		area(1, 0.15, 2, 0.25, 3, 0.35, 4, 0.45),
	}
	claims, subs, b := runFinalRound(t, 6, []int{1, 1}, areas)
	if subs[0].Alloc != 3 || subs[1].Alloc != 3 {
		t.Fatalf("allocs %d, %d, want 3, 3", subs[0].Alloc, subs[1].Alloc)
	}
	if len(b.calls) != 2 || b.calls[1][0].Group != 0 {
		t.Fatalf("fetches %v, want one top-up of group 0", b.calls)
	}
	for _, c := range claims {
		if c.Group == 0 && len(c.Images) != 5 {
			t.Fatalf("group 0 holds %d images, want 3 + 2 topped up", len(c.Images))
		}
	}
}

// TestFinalRoundCapLimited caps a group by its search area: the allocation
// moves the slack to the others, and a top-up skips the full group.
func TestFinalRoundCapLimited(t *testing.T) {
	areas := [][]hit{
		area(1, 0.1, 2, 0.2),
		area(2, 0.1, 3, 0.2, 4, 0.3),
		area(3, 0.1, 5, 0.2, 6, 0.3, 7, 0.4, 8, 0.5, 9, 0.6),
	}
	_, subs, b := runFinalRound(t, 8, []int{3, 2, 1}, areas)
	allocs := []int{subs[0].Alloc, subs[1].Alloc, subs[2].Alloc}
	if !reflect.DeepEqual(allocs, []int{2, 3, 3}) {
		t.Fatalf("allocs %v, want [2 3 3]", allocs)
	}
	// Group 1 finds image 2 claimed and holds 2 of its 3; group 2 finds 3
	// claimed and holds 3. The top-up skips group 0 (at its cap), finds
	// group 1's area exhausted and takes the last image from group 2.
	for _, c := range b.calls[1:] {
		if c[0].Group == 0 {
			t.Fatalf("top-up asked group 0, which is at its cap: %v", b.calls)
		}
	}
	if len(b.calls) < 2 {
		t.Fatalf("no top-up: %v", b.calls)
	}
}

// TestFinalRoundExhaustion has fewer images in all search areas together
// than k: every one is returned once and the top-up stops.
func TestFinalRoundExhaustion(t *testing.T) {
	areas := [][]hit{
		area(1, 0.1, 2, 0.2, 3, 0.3),
		area(2, 0.1, 3, 0.2, 4, 0.3),
	}
	claims, _, _ := runFinalRound(t, 10, []int{1, 1}, areas)
	n := 0
	for _, c := range claims {
		n += len(c.Images)
	}
	if n != 4 {
		t.Fatalf("%d images, want all 4", n)
	}
}

// TestFinalRoundMoreGroupsThanK keeps only the k groups with the most
// relevant images, ties by key.
func TestFinalRoundMoreGroupsThanK(t *testing.T) {
	var areas [][]hit
	for g := 0; g < 5; g++ {
		areas = append(areas, area(float64(10*g), 0.1, float64(10*g+1), 0.2))
	}
	claims, subs, _ := runFinalRound(t, 3, []int{1, 2, 1, 3, 1}, areas)
	var order []int
	for _, s := range subs {
		order = append(order, s.Group)
	}
	if !reflect.DeepEqual(order, []int{3, 1, 0}) {
		t.Fatalf("kept groups %v, want [3 1 0]", order)
	}
	if len(claims) != 3 {
		t.Fatalf("%d claims, want 3", len(claims))
	}
}

// randomRound draws a final round from seed: up to 8 groups with random
// relevant counts and overlapping search areas over a small ID universe.
func randomRound(seed int64) (k int, counts []int, areas [][]hit) {
	rng := rand.New(rand.NewSource(seed))
	k = 1 + rng.Intn(20)
	universe := 1 + rng.Intn(40)
	n := 1 + rng.Intn(8)
	for g := 0; g < n; g++ {
		counts = append(counts, 1+rng.Intn(4))
		var a []hit
		for _, id := range rng.Perm(universe)[:1+rng.Intn(universe)] {
			// Coarse distances, so ties between IDs are common.
			a = append(a, hit{id, float64(rng.Intn(8)) / 4})
		}
		sortHits(a)
		areas = append(areas, a)
	}
	return k, counts, areas
}

func TestFinalRoundRandom(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		k, counts, areas := randomRound(seed)
		runFinalRound(t, k, counts, areas)
	}
}

func FuzzFinalRound(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		k, counts, areas := randomRound(seed)
		runFinalRound(t, k, counts, areas)
	})
}
