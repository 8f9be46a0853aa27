package nn

import (
	"testing"

	"memlife/internal/tensor"
)

// TestCloneIsIndependentAndEquivalent: a clone computes bit-identical
// logits, owns its weights (writing them leaves the original alone),
// and starts from zeroed gradients and no forward state.
func TestCloneIsIndependentAndEquivalent(t *testing.T) {
	cases := []struct {
		name  string
		build func(*tensor.RNG) (*Network, error)
	}{
		{"lenet5", func(rng *tensor.RNG) (*Network, error) {
			return NewLeNet5(LeNetConfig{InC: 3, H: 16, W: 16, Classes: 10}, rng)
		}},
		{"vgg16", func(rng *tensor.RNG) (*Network, error) {
			return NewVGG16(VGGConfig{InC: 3, H: 32, W: 32, Classes: 10, WidthMult: 0.0625, FCWidth: 16}, rng)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := tensor.NewRNG(31)
			net, err := tc.build(rng)
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.New(4, net.InputSize)
			rng.FillNormal(x, 0, 1)
			// Leave gradients and forward state behind on the original.
			logits := net.Forward(x, true)
			_, dlogits := SoftmaxCrossEntropy(logits, []int{0, 1, 2, 3})
			net.Backward(dlogits)

			c := net.Clone()
			if c.Name != net.Name || c.InputSize != net.InputSize || len(c.Layers) != len(net.Layers) {
				t.Fatalf("clone header %q/%d/%d layers, want %q/%d/%d",
					c.Name, c.InputSize, len(c.Layers), net.Name, net.InputSize, len(net.Layers))
			}
			for i, l := range c.Layers {
				// Flatten is stateless and zero-sized, so two of them may
				// share an address.
				if _, stateless := l.(*Flatten); !stateless && l == net.Layers[i] {
					t.Fatalf("layer %d (%s) is shared with the original", i, l.Name())
				}
				switch cl := l.(type) {
				case *Conv2D:
					if cl.cols != nil {
						t.Fatalf("conv %s carries forward state", cl.name)
					}
				case *Dense:
					if cl.x != nil {
						t.Fatalf("dense %s carries forward state", cl.name)
					}
				case *MaxPool2D:
					if cl.argmax != nil {
						t.Fatalf("maxpool %s carries forward state", cl.name)
					}
				case *ReLU:
					if cl.mask != nil {
						t.Fatal("relu carries forward state")
					}
				}
			}

			orig, clone := net.Params(), c.Params()
			if len(clone) != len(orig) {
				t.Fatalf("clone has %d params, want %d", len(clone), len(orig))
			}
			for i, p := range clone {
				o := orig[i]
				if p == o || p.W == o.W || p.Grad == o.Grad {
					t.Fatalf("param %s shares memory with the original", p.Name)
				}
				if p.Name != o.Name || p.Kind != o.Kind {
					t.Fatalf("param %d is %s/%d, want %s/%d", i, p.Name, p.Kind, o.Name, o.Kind)
				}
				for j, v := range p.W.Data() {
					if v != o.W.Data()[j] {
						t.Fatalf("param %s element %d: %v, want %v", p.Name, j, v, o.W.Data()[j])
					}
				}
				if p.Grad.AbsMax() != 0 {
					t.Fatalf("param %s: clone gradient not zeroed", p.Name)
				}
			}

			want := net.Forward(x, false).Data()
			got := c.Forward(x, false).Data()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("logit %d: clone %v, original %v", i, got[i], want[i])
				}
			}

			snap := net.SnapshotParams()
			for _, p := range clone {
				p.W.Fill(7)
			}
			for i, p := range orig {
				for j, v := range p.W.Data() {
					if v != snap[i][j] {
						t.Fatalf("writing the clone changed original param %s", p.Name)
					}
				}
			}
		})
	}
}

// otherLayer is a Layer type Clone does not know.
type otherLayer struct{ Flatten }

func TestCloneUnknownLayerPanics(t *testing.T) {
	net := NewNetwork("odd", 4, &otherLayer{})
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of an unknown layer type must panic")
		}
	}()
	net.Clone()
}
