package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
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

// subqueriesFor describes one subquery per area, its Cap the area's size and
// its span [smallest ID, largest ID + 1): two areas that share an image get
// intersecting spans.
func subqueriesFor(counts []int, areas [][]hit) []Subquery {
	subs := make([]Subquery, len(counts))
	for g, a := range areas {
		subs[g] = Subquery{Group: g, Count: counts[g], Key: uint64(g), Cap: len(a)}
		for i, h := range a {
			if i == 0 || h.id < subs[g].Lo {
				subs[g].Lo = h.id
			}
			subs[g].Hi = max(subs[g].Hi, h.id+1)
		}
	}
	return subs
}

// overlapWant is subquery i's first request as FinalRound must size it: its
// allotment plus those of the earlier subqueries whose spans intersect its
// own.
func overlapWant(subs []Subquery, i int) int {
	want := subs[i].Alloc
	for _, e := range subs[:i] {
		if e.Lo < subs[i].Hi && subs[i].Lo < e.Hi {
			want += e.Alloc
		}
	}
	return want
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

	// The first fetch asks every subquery, in final order, for its
	// allotment plus what overlapping earlier subqueries can claim.
	if len(b.calls) == 0 || len(b.calls[0]) != len(subs) {
		t.Fatalf("first fetch %v, want one request per subquery", b.calls)
	}
	for i, s := range subs {
		if r, want := b.calls[0][i], overlapWant(subs, i); r.Group != s.Group || r.Want != want {
			t.Fatalf("first request %d = %+v, want group %d for %d", i, r, s.Group, want)
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
	// group claimed, and every image lies in its own search area. The first
	// request suffices for that without being sized from the spans: among
	// its first Want rows at most Want - Alloc are earlier groups' claims,
	// it covers every earlier group whose area shares an image with its
	// own, it never exceeds the prefix sum of allotments, and it is the
	// allotment alone when no earlier span intersects its own.
	claimed := map[int]bool{}
	held := map[int][]hit{}
	prefix := 0
	for i, s := range subs {
		r := b.calls[0][i]
		taken := 0
		for _, h := range areas[s.Group][:min(r.Want, len(areas[s.Group]))] {
			if claimed[h.id] {
				taken++
			}
		}
		if taken > r.Want-s.Alloc {
			t.Fatalf("group %d asks for %d rows (alloc %d), %d of them already claimed", s.Group, r.Want, s.Alloc, taken)
		}
		in := map[int]bool{}
		for _, h := range areas[s.Group] {
			in[h.id] = true
		}
		shared, spanned := 0, false
		for _, e := range subs[:i] {
			for _, h := range areas[e.Group] {
				if in[h.id] {
					shared += e.Alloc
					break
				}
			}
			spanned = spanned || (e.Lo < s.Hi && s.Lo < e.Hi)
		}
		if r.Want < s.Alloc+shared || r.Want > s.Alloc+prefix || (!spanned && r.Want != s.Alloc) {
			t.Fatalf("group %d asks for %d: alloc %d, sharing earlier allotments %d, earlier allotments %d, any earlier span intersecting %v",
				s.Group, r.Want, s.Alloc, shared, prefix, spanned)
		}
		prefix += s.Alloc

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
		held[s.Group] = want
		for _, h := range got {
			if !in[h.id] {
				t.Fatalf("group %d claimed %d from outside its area", s.Group, h.id)
			}
		}
	}

	// Every later fetch is one top-up request, issued while fewer than k
	// images are claimed, to a group with room in its area. Replaying them
	// over the first merge's claims yields every group's final images.
	for _, c := range b.calls[1:] {
		if len(c) != 1 {
			t.Fatalf("top-up fetch with %d requests", len(c))
		}
		if len(claimed) >= k {
			t.Fatalf("top-up %+v issued with %d images claimed, k=%d", c[0], len(claimed), k)
		}
		g := c[0].Group
		if len(held[g]) >= len(areas[g]) {
			t.Fatalf("top-up %+v of a group at its cap", c[0])
		}
		more := areas[g][:min(c[0].Want, len(areas[g]))]
		limit := len(held[g]) + k - len(claimed)
		for _, h := range more {
			if len(held[g]) >= limit {
				break
			}
			if !claimed[h.id] {
				claimed[h.id] = true
				held[g] = append(held[g], h)
			}
		}
	}
	for _, s := range subs {
		if got := byGroup[s.Group].Images; !slices.Equal(got, held[s.Group]) {
			t.Fatalf("group %d holds %v, the replayed top-ups %v", s.Group, got, held[s.Group])
		}
	}

	// Prefix consistency: asking every subquery for its whole area instead
	// of its sized request changes nothing.
	wholeSubs := OrderSubqueries(subqueriesFor(counts, areas), k)
	whole, err := FinalRound(context.Background(), k, wholeSubs, (&fakeBacking{areas: areas, whole: true}).fetch, claimHit)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, claims) {
		t.Fatalf("whole-area answer differs:\n  sized %v\n  whole %v", claims, whole)
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

// TestFinalRoundDisjointAreas gives every group its own search area: no
// group can claim another's images, so each asks for exactly its allotment.
func TestFinalRoundDisjointAreas(t *testing.T) {
	areas := [][]hit{
		area(1, 0.1, 2, 0.2, 3, 0.3, 4, 0.4),
		area(10, 0.1, 11, 0.2, 12, 0.3),
		area(20, 0.3, 21, 0.1, 22, 0.2, 23, 0.5, 24, 0.4),
	}
	claims, subs, b := runFinalRound(t, 7, []int{2, 1, 3}, areas)
	if len(b.calls) != 1 {
		t.Fatalf("fetches %v, want the first alone", b.calls)
	}
	for i, s := range subs {
		if r := b.calls[0][i]; r.Want != s.Alloc {
			t.Fatalf("request %+v, want its allotment %d", r, s.Alloc)
		}
	}
	n := 0
	for _, c := range claims {
		n += len(c.Images)
	}
	if n != 7 {
		t.Fatalf("%d images, want k=7", n)
	}
}

// randomRound draws a final round from seed: up to 8 groups with random
// relevant counts, each with a search area drawn from a random span of a
// small ID universe, so areas overlap often but not always.
func randomRound(seed int64) (k int, counts []int, areas [][]hit) {
	rng := rand.New(rand.NewSource(seed))
	k = 1 + rng.Intn(20)
	universe := 1 + rng.Intn(40)
	n := 1 + rng.Intn(8)
	for g := 0; g < n; g++ {
		counts = append(counts, 1+rng.Intn(4))
		lo := rng.Intn(universe)
		width := 1 + rng.Intn(universe-lo)
		var a []hit
		for _, off := range rng.Perm(width)[:1+rng.Intn(width)] {
			id := lo + off
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
