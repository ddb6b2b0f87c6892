// Clientserver demonstrates the paper's §4 scalability architecture end to
// end, in one process: an HTTP server hosts the database; a client downloads
// the representative payload (a small fraction of the database), runs the
// whole relevance-feedback loop locally, and contacts the server exactly once
// — to execute the final localized k-NN subqueries.
//
//	go run ./examples/clientserver
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"strings"

	"qdcbir"
	"qdcbir/internal/core"
	"qdcbir/internal/server"
)

func main() {
	// --- server side: build and serve a small database ---
	sys, err := qdcbir.Build(qdcbir.SmallConfig())
	if err != nil {
		log.Fatal(err)
	}
	engine := core.NewEngine(sys.RFS(), core.Config{})
	srv := server.New(engine, sys.Corpus().SubconceptOf)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("server: %d images, %d representatives\n", sys.Len(), sys.RepresentativeCount())

	// --- client side: one payload download, then local feedback ---
	client, err := server.Dial(ts.URL, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client: downloaded payload with %d representatives (%.1f%% of the database)\n\n",
		client.RepCount(), 100*float64(client.RepCount())/float64(client.Images()))

	wanted := map[string]bool{
		"horse/polo":       true,
		"horse/wild-horse": true,
		"horse/race":       true,
	}
	sess := client.NewSession(42, 21)
	for round := 1; round <= 3; round++ {
		var marks []int
		seen := map[int]bool{}
		for d := 0; d < 15 && len(marks) < 8; d++ {
			for _, c := range sess.Candidates() { // local, zero server traffic
				if !seen[c.ID] && wanted[client.Label(c.ID)] && len(marks) < 8 {
					seen[c.ID] = true
					marks = append(marks, c.ID)
				}
			}
		}
		if err := sess.Feedback(marks); err != nil { // local descent
			log.Fatal(err)
		}
		fmt.Printf("round %d (client-local): %d marks, %d subqueries\n",
			round, len(marks), len(sess.Frontier()))
	}

	// The single server round trip.
	res, err := client.Finalize(context.Background(), sess, 24)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserver executed %d localized subqueries (%d node reads):\n",
		len(res.Groups), res.Stats.FinalReads)
	for i, g := range res.Groups {
		kinds := map[string]int{}
		for _, im := range g.Images {
			kinds[short(im.Label)]++
		}
		fmt.Printf("  group %d: rank %.3f, %v\n", i+1, g.RankScore, kinds)
	}
	fmt.Println("\nEvery feedback round ran on the client against the cached payload;")
	fmt.Println("a traditional CBIR server would have executed a global k-NN per round.")
}

func short(label string) string {
	if i := strings.IndexByte(label, '/'); i >= 0 {
		return label[i+1:]
	}
	return label
}
