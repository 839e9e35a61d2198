package main

// Model preparation, done before any clock starts: train the paper's
// three networks, quantise them into the arms a workload serves, encode
// each as a binary artifact and compute the reference logits of every
// test-set row through the MAC banks.

import (
	"fmt"
	"math"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/emac"
	"repro/internal/experiments"
	"repro/internal/nn"
)

// Datasets in the order the benchmark names them.
const (
	dsIris = iota
	dsWBC
	dsMushroom
)

var datasetNames = [...]string{"iris", "wbc", "mushroom"}

// arm is one arithmetic configuration: a single spec for a uniform
// network, one spec per layer for a mixed one.
type arm struct {
	key   string // metric-name form, e.g. "posit8_0"
	specs []string
}

var (
	armPosit80  = arm{"posit8_0", []string{"posit(8,0)"}}
	armPosit81  = arm{"posit8_1", []string{"posit(8,1)"}}
	armFloat84  = arm{"float8_4", []string{"float(8,4)"}}
	armFixed84  = arm{"fixed8_4", []string{"fixed(8,4)"}}
	armPosit161 = arm{"posit16_1", []string{"posit(16,1)"}}
	armMixed    = arm{"mixed", []string{"posit(8,0)", "float(8,4)", "fixed(8,4)"}}
)

// ledgerArms are the WBC arms the kernel ledger and offline-batch cover:
// every EMAC arm, the wide format and the mixed model type.
var ledgerArms = []arm{armPosit80, armFloat84, armFixed84, armPosit161, armMixed}

// modelRef names one quantised model: a dataset under an arm.
type modelRef struct {
	ds  int
	arm arm
}

func (m modelRef) key() string { return datasetNames[m.ds] + "-" + m.arm.key }

// prepared is one model ready to serve and to check against.
type prepared struct {
	ref   modelRef
	model core.Model // the quantised network the reference runs on
	bytes []byte     // its canonical binary artifact
	rows  [][]float64
	// one[i] is rows[i] as a one-sample batch.
	one [][][]float64
	// want[i] holds the reference logits of rows[i] as float64 bits;
	// class[i] their argmax.
	want  [][]uint64
	class []int
	// acts[i][l] holds the input codes of layer l for rows[i].
	acts [][][]emac.Code
}

// buildModel quantises a trained network into an arm.
func buildModel(tr *experiments.Trained, a arm) (core.Model, error) {
	ariths := make([]emac.Arithmetic, len(a.specs))
	for i, s := range a.specs {
		ar, err := core.ParseArith(s)
		if err != nil {
			return nil, err
		}
		ariths[i] = ar
	}
	if len(ariths) == 1 {
		return core.Quantize(tr.Net, ariths[0]), nil
	}
	if len(ariths) != len(tr.Net.Layers) {
		return nil, fmt.Errorf("arm %s has %d layer specs for %d layers", a.key, len(ariths), len(tr.Net.Layers))
	}
	return core.QuantizeMixed(tr.Net, ariths), nil
}

// trainedByName maps the benchmark's dataset indices onto
// experiments.Datasets().
func trainedByName() ([3]*experiments.Trained, error) {
	var out [3]*experiments.Trained
	for _, tr := range experiments.Datasets() {
		switch tr.Name {
		case "Iris":
			out[dsIris] = tr
		case "WisconsinBreastCancer":
			out[dsWBC] = tr
		case "Mushroom":
			out[dsMushroom] = tr
		}
	}
	for i, tr := range out {
		if tr == nil {
			return out, fmt.Errorf("dataset %s not trained", datasetNames[i])
		}
	}
	return out, nil
}

// prepare builds every model in refs with the seed's row pools.
func prepare(refs []modelRef, pools [3][]int) (map[string]*prepared, error) {
	trained, err := trainedByName()
	if err != nil {
		return nil, err
	}
	out := make(map[string]*prepared, len(refs))
	for _, r := range refs {
		if _, ok := out[r.key()]; ok {
			continue
		}
		tr := trained[r.ds]
		m, err := buildModel(tr, r.arm)
		if err != nil {
			return nil, err
		}
		data, err := artifact.Encode(m)
		if err != nil {
			return nil, fmt.Errorf("encoding %s: %w", r.key(), err)
		}
		p := &prepared{ref: r, model: m, bytes: data}
		for _, i := range pools[r.ds] {
			x := tr.Test.X[i]
			logits, acts := referenceLogits(m, x)
			bits := make([]uint64, len(logits))
			for j, v := range logits {
				bits[j] = math.Float64bits(v)
			}
			p.rows = append(p.rows, x)
			p.one = append(p.one, [][]float64{x})
			p.want = append(p.want, bits)
			p.class = append(p.class, nn.Argmax(logits))
			p.acts = append(p.acts, acts)
		}
		out[r.key()] = p
	}
	return out, nil
}

// layerParams returns a model's layers whichever model type it is.
func layerParams(m core.Model) []*core.Layer {
	switch n := m.(type) {
	case *core.Network:
		return n.Layers
	case *core.MixedNetwork:
		return n.Layers
	}
	panic(fmt.Sprintf("perfbench: unsupported model type %T", m))
}

// referenceLogits runs one input through the model's MAC banks: one
// fresh emac.MAC per neuron, reset to the bias and stepped once per
// weight, ReLU on hidden layers and the format-conversion unit between
// layers of different arithmetic. It shares no code with the serving
// path's kernels, sessions or runtimes. It also returns each layer's
// input codes.
func referenceLogits(m core.Model, x []float64) ([]float64, [][]emac.Code) {
	if m.Standardizer() != nil {
		panic("perfbench: reference expects a model without a folded standardizer")
	}
	ariths := m.Ariths()
	layers := layerParams(m)
	act := make([]emac.Code, len(x))
	for i, v := range x {
		act[i] = ariths[0].Quantize(v)
	}
	acts := make([][]emac.Code, 0, len(layers))
	for li, l := range layers {
		acts = append(acts, act)
		a := ariths[li]
		next := make([]emac.Code, l.Out)
		for j := range next {
			mac := a.NewMAC(l.In)
			mac.Reset(l.B[j])
			for i, c := range act {
				mac.Step(l.W[j][i], c)
			}
			next[j] = mac.Result()
		}
		if li < len(layers)-1 {
			to := ariths[li+1]
			for j, c := range next {
				c = a.ReLU(c)
				if to != a {
					c = to.Quantize(a.Decode(c))
				}
				next[j] = c
			}
		}
		act = next
	}
	last := ariths[len(ariths)-1]
	logits := make([]float64, len(act))
	for i, c := range act {
		logits[i] = last.Decode(c)
	}
	return logits, acts
}
