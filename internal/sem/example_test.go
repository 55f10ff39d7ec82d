package sem_test

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sem"
	"repro/internal/ssd"
)

// The semi-external workflow: serialize a graph, mount it on a simulated
// flash device behind the block cache, and traverse it with vertex state in
// RAM.
func Example() {
	b := graph.NewBuilder[uint32](4, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g, err := b.Build(true)
	if err != nil {
		log.Fatal(err)
	}

	var file bytes.Buffer
	if err := sem.Write(&file, g, sem.WriteConfig{}); err != nil {
		log.Fatal(err)
	}

	// A fast test profile; production code uses ssd.FusionIO etc.
	dev := ssd.New(ssd.Profile{Name: "test", Channels: 4, ReadLatency: time.Microsecond},
		&ssd.MemBacking{Data: file.Bytes()})
	cache, err := sem.NewCachedStoreRA(dev, 4096, 64*1024, 8)
	if err != nil {
		log.Fatal(err)
	}
	sg, err := sem.Open[uint32](cache)
	if err != nil {
		log.Fatal(err)
	}

	res, err := core.BFS[uint32](sg, 0, core.Config{Workers: 8, SemiSort: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Level, sg.NumEdges())
	// Output: [0 1 2 3] 3
}

func ExampleWrite() {
	b := graph.NewBuilder[uint32](2, true)
	b.AddEdge(0, 1, 9)
	g, err := b.Build(true)
	if err != nil {
		log.Fatal(err)
	}
	var file bytes.Buffer
	if err := sem.Write(&file, g, sem.WriteConfig{}); err != nil {
		log.Fatal(err)
	}
	back, err := sem.LoadCSR[uint32](&ssd.MemBacking{Data: file.Bytes()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(back.NumVertices(), back.NumEdges(), back.WeightsRaw()[0])
	// Output: 2 1 9
}
