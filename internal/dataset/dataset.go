// Package dataset generates and serializes the evaluation corpus of
// the paper's §V-A: question/context sets derived from an HR employee
// handbook, each with three labeled responses — correct, partially
// correct (one hallucinated detail), and wrong (fully contradicting
// the context). The real dataset came from the Lane Crawford handbook
// and is proprietary; this generator reproduces its documented
// structure with synthetic policy facts (see docs/architecture.md,
// "Stand-ins for the paper's models and data").
package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Label classifies a response against its context.
type Label string

// The three response classes of §V-A.
const (
	LabelCorrect Label = "correct"
	LabelPartial Label = "partial"
	LabelWrong   Label = "wrong"
)

// Labels lists the classes in the paper's presentation order.
func Labels() []Label { return []Label{LabelWrong, LabelPartial, LabelCorrect} }

// Valid reports whether l is one of the three known labels.
func (l Label) Valid() bool {
	switch l {
	case LabelCorrect, LabelPartial, LabelWrong:
		return true
	}
	return false
}

// Response is one candidate answer with its ground-truth label. Labels
// are response-level, not sentence-level, matching the paper ("the
// labels are not applied at the sentence level").
type Response struct {
	Text  string `json:"text"`
	Label Label  `json:"label"`
}

// Item is one evaluation set: a context passage, a question answerable
// from it, and the three labeled responses.
type Item struct {
	ID        int        `json:"id"`
	Topic     string     `json:"topic"`
	Category  string     `json:"category"`
	Context   string     `json:"context"`
	Question  string     `json:"question"`
	Responses []Response `json:"responses"`
}

// Response returns the item's response carrying the given label, or an
// error when absent.
func (it Item) Response(l Label) (Response, error) {
	for _, r := range it.Responses {
		if r.Label == l {
			return r, nil
		}
	}
	return Response{}, fmt.Errorf("dataset: item %d has no %q response", it.ID, l)
}

// Set is a full evaluation dataset.
type Set struct {
	// Name describes the generation recipe.
	Name string `json:"name"`
	// Seed reproduces the exact same set via Generate.
	Seed  uint64 `json:"seed"`
	Items []Item `json:"items"`
}

// Validate checks the structural invariants the experiments rely on:
// every item has non-empty context/question and exactly one response
// per label.
func (s *Set) Validate() error {
	if len(s.Items) == 0 {
		return errors.New("dataset: empty set")
	}
	for _, it := range s.Items {
		if it.Context == "" || it.Question == "" {
			return fmt.Errorf("dataset: item %d missing context or question", it.ID)
		}
		seen := map[Label]int{}
		for _, r := range it.Responses {
			if !r.Label.Valid() {
				return fmt.Errorf("dataset: item %d has invalid label %q", it.ID, r.Label)
			}
			if r.Text == "" {
				return fmt.Errorf("dataset: item %d has empty %s response", it.ID, r.Label)
			}
			seen[r.Label]++
		}
		for _, l := range Labels() {
			if seen[l] != 1 {
				return fmt.Errorf("dataset: item %d has %d %q responses, want 1", it.ID, seen[l], l)
			}
		}
	}
	return nil
}

// Contexts returns every item's context passage, in order — the corpus
// the RAG vector database is built from.
func (s *Set) Contexts() []string {
	out := make([]string, len(s.Items))
	for i, it := range s.Items {
		out[i] = it.Context
	}
	return out
}

// Save writes the set as indented JSON.
func (s *Set) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("dataset: save: %w", err)
	}
	return nil
}

// SaveFile writes the set to path.
func (s *Set) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: save: %w", err)
	}
	defer f.Close()
	if err := s.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// Load reads a set written by Save and validates it.
func Load(r io.Reader) (*Set, error) {
	var s Set
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("dataset: load: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads a set from path.
func LoadFile(path string) (*Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: load: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// ContradictionExample is one row of the paper's Table I.
type ContradictionExample struct {
	Type     string
	Prompt   string
	Response string
}

// ContradictionExamples returns the paper's Table I verbatim: the
// three hallucination types with their illustrative prompt/response
// pairs.
func ContradictionExamples() []ContradictionExample {
	return []ContradictionExample{
		{
			Type:   "Logical",
			Prompt: "Can you introduce Madison?",
			Response: "The city of Madison has over 500K residents. " +
				"It is known for its small-town charm and quiet atmosphere.",
		},
		{
			Type:   "Prompt",
			Prompt: "Describe a healthy breakfast that includes fruits and whole grains.",
			Response: "A bowl of sugary cereal with milk and a side of bacon " +
				"is a great choice for breakfast.",
		},
		{
			Type:   "Factual",
			Prompt: "What are the main ingredients in a traditional Margherita pizza?",
			Response: "A traditional Margherita pizza is made with tomatoes, " +
				"mozzarella cheese, fresh basil, and a secret ingredient: chocolate.",
		},
	}
}
