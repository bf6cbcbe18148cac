package main

import (
	"reflect"
	"testing"
)

func TestSameSeedSameRequests(t *testing.T) {
	a, err := newModelGen(7).take(40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newModelGen(7).take(40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different models")
	}
	c, err := newModelGen(8).take(40)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same models")
	}
	seen := map[string]bool{}
	for _, m := range a {
		if seen[m.text] {
			t.Fatalf("model repeated after canonical deduplication:\n%s", m.text)
		}
		seen[m.text] = true
	}

	for client := 0; client < icidWorkers; client++ {
		x, y := newZipfSeq(7, client), newZipfSeq(7, client)
		for i := 0; i < 1000; i++ {
			if p, q := x.next(), y.next(); p != q || p < 0 || p >= hotModels {
				t.Fatalf("client %d request %d: %d vs %d", client, i, p, q)
			}
		}
	}
	if !reflect.DeepEqual(sample(3, 100, 10), sample(3, 100, 10)) {
		t.Fatal("the same seed gave different cross-check samples")
	}
}

func TestZipfFavoursTheHead(t *testing.T) {
	z := newZipfSeq(1, 0)
	head := 0
	for i := 0; i < 10000; i++ {
		if z.next() < hotModels/4 {
			head++
		}
	}
	if head < 7000 {
		t.Fatalf("only %d of 10000 requests hit the first quarter of the working set", head)
	}
}
