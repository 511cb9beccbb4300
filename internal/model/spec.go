package model

import (
	"encoding/json"
	"fmt"
)

// Spec is the JSON-serializable description of an HBSP^k machine, used
// by the command-line tools to load cluster configurations.
type Spec struct {
	// G is the bandwidth indicator g.
	G float64 `json:"g"`
	// Root describes the machine hierarchy.
	Root NodeSpec `json:"root"`
}

// NodeSpec describes one machine in a Spec.
type NodeSpec struct {
	Name     string     `json:"name"`
	Comm     float64    `json:"r,omitempty"`     // r_{i,j}; defaults to 1
	Comp     float64    `json:"speed,omitempty"` // compute slowdown; defaults to 1
	Sync     float64    `json:"L,omitempty"`     // L_{i,j}
	Share    float64    `json:"c,omitempty"`     // c_{i,j}; filled by Normalize if 0
	Children []NodeSpec `json:"children,omitempty"`
}

// Tree materializes the spec into a normalized, validated Tree.
func (s *Spec) Tree() (*Tree, error) {
	root, err := s.Root.machine()
	if err != nil {
		return nil, err
	}
	t, err := New(root, s.G)
	if err != nil {
		return nil, err
	}
	t.Normalize()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func (n *NodeSpec) machine() (*Machine, error) {
	if n.Name == "" {
		return nil, fmt.Errorf("model: machine spec with empty name")
	}
	opts := []Option{}
	if n.Comm != 0 {
		opts = append(opts, WithComm(n.Comm))
	}
	if n.Comp != 0 {
		opts = append(opts, WithComp(n.Comp))
	}
	if n.Sync != 0 {
		opts = append(opts, WithSync(n.Sync))
	}
	if n.Share != 0 {
		opts = append(opts, WithShare(n.Share))
	}
	if len(n.Children) == 0 {
		return NewLeaf(n.Name, opts...), nil
	}
	children := make([]*Machine, len(n.Children))
	for i := range n.Children {
		c, err := n.Children[i].machine()
		if err != nil {
			return nil, err
		}
		children[i] = c
	}
	return NewCluster(n.Name, children, opts...), nil
}

// ParseSpec decodes a JSON machine description.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("model: parsing machine spec: %w", err)
	}
	return &s, nil
}

// SpecOf captures an existing tree as a Spec, suitable for re-encoding.
func SpecOf(t *Tree) *Spec {
	var capture func(m *Machine) NodeSpec
	capture = func(m *Machine) NodeSpec {
		n := NodeSpec{
			Name:  m.Name,
			Comm:  m.CommSlowdown,
			Comp:  m.CompSlowdown,
			Sync:  m.SyncCost,
			Share: m.Share,
		}
		for _, c := range m.Children {
			n.Children = append(n.Children, capture(c))
		}
		return n
	}
	return &Spec{G: t.G, Root: capture(t.Root)}
}

// Encode renders the spec as indented JSON, two spaces per level.
func (s *Spec) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
