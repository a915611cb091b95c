package main

import (
	"fmt"
	"math"

	"khist/internal/cli"
	"khist/internal/dist"
	"khist/internal/serve"
	"khist/internal/vopt"
)

// Tester instance classes: the truth a verdict is scored against.
const (
	excluded = iota // neither a k-histogram nor eps-far: any verdict is allowed
	isKHist         // a k-histogram: the tester must accept
	isFar           // eps-far from every k-histogram: the tester must reject
)

// truth is the untimed ground-truth pass. A generator source's truth is
// its pmf; a stream's is the exact pmf of every value ingested into it.
type truth struct {
	sc   *script
	pmfs map[string]*dist.Distribution
	opt  map[string]float64
}

func newTruth(sc *script) *truth {
	return &truth{sc: sc, pmfs: map[string]*dist.Distribution{}, opt: map[string]float64{}}
}

func (t *truth) pmf(spec serve.SourceSpec) (*dist.Distribution, error) {
	key := fmt.Sprintf("%+v", spec)
	if d, ok := t.pmfs[key]; ok {
		return d, nil
	}
	var d *dist.Distribution
	var err error
	if spec.Stream != "" {
		w := make([]float64, streamN)
		for _, b := range t.sc.batches[spec.Stream] {
			for _, v := range b {
				w[v]++
			}
		}
		d, err = dist.FromWeights(w)
	} else {
		d, err = cli.Generate(spec.Gen, spec.N, spec.K, spec.Seed)
	}
	if err != nil {
		return nil, err
	}
	t.pmfs[key] = d
	return d, nil
}

// optimal is OPT_k(p) in the norm: the squared l2 error of the best
// k-histogram for "l2sq", the l1 distance to the best one for "l1".
func (t *truth) optimal(spec serve.SourceSpec, k int, norm string) (float64, error) {
	key := fmt.Sprintf("%+v|%d|%s", spec, k, norm)
	if v, ok := t.opt[key]; ok {
		return v, nil
	}
	p, err := t.pmf(spec)
	if err != nil {
		return 0, err
	}
	var v float64
	if norm == "l1" {
		v, err = vopt.OptimalL1Error(p, k)
	} else {
		v, err = vopt.OptimalL2Error(p, k)
	}
	if err != nil {
		return 0, err
	}
	t.opt[key] = v
	return v, nil
}

// learnExcess is ||p - H||_2^2 - OPT_k(p) for one learned histogram,
// clipped at zero: H may use more than k pieces and then beat OPT_k,
// and a shortfall below the k-piece optimum is no excess.
func (t *truth) learnExcess(q *query, r *serve.LearnResponse) (float64, error) {
	p, err := t.pmf(q.lr.Source)
	if err != nil {
		return 0, err
	}
	opt, err := t.optimal(q.lr.Source, q.lr.K, "l2sq")
	if err != nil {
		return 0, err
	}
	var e2 float64
	for j, v := range r.Values {
		for i := r.Bounds[j]; i < r.Bounds[j+1]; i++ {
			d := p.P(i) - v
			e2 += d * d
		}
	}
	return math.Max(0, e2-opt), nil
}

// khistTol absorbs the DP's floating-point residue on exact histograms.
const khistTol = 1e-12

// classify sorts a tester query's instance into excluded, isKHist or
// isFar by the exact distance from p to the nearest k-histogram in the
// tester's norm.
func (t *truth) classify(q *query) (int, error) {
	norm := "l2sq"
	if q.op == "test_l1" {
		norm = "l1"
	}
	opt, err := t.optimal(q.tr.Source, q.tr.K, norm)
	if err != nil {
		return excluded, err
	}
	return classOf(opt, norm, q.tr.Eps), nil
}

// classOf classifies by OPT_k: zero means a k-histogram, a distance
// above eps means eps-far.
func classOf(opt float64, norm string, eps float64) int {
	dist := opt
	if norm == "l2sq" {
		dist = math.Sqrt(math.Max(0, opt))
	}
	switch {
	case dist <= khistTol:
		return isKHist
	case dist > eps:
		return isFar
	}
	return excluded
}

// quality scores every deterministic answer: the mean learn excess and
// the share of classified tester verdicts that match the truth.
func quality(sc *script, answers []decoded) (excess float64, learns int, agree float64, tests int, err error) {
	t := newTruth(sc)
	var sum float64
	var match int
	for _, a := range answers {
		switch r := a.resp.(type) {
		case *serve.LearnResponse:
			e, err := t.learnExcess(a.q, r)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			sum += e
			learns++
		case *serve.TestResponse:
			c, err := t.classify(a.q)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			if c == excluded {
				continue
			}
			tests++
			if r.Accept == (c == isKHist) {
				match++
			}
		}
	}
	return sum / math.Max(1, float64(learns)), learns, ratio(int64(match), int64(tests)), tests, nil
}
