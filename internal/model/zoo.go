package model

import (
	"fmt"
	"strings"
)

// sizedFamily is a family of models built from a size label.
type sizedFamily struct {
	sizes []string // smallest first
	build func(size string) (*Graph, error)
}

// zoo is the table of sized families (Table 2 plus Llama): the one
// place a family name is decided. The command lines say "wresnet" and
// the wire says "wideresnet"; both mean the same builder everywhere.
var zoo = map[string]sizedFamily{
	"gpt3":       {GPT3Sizes, GPT3},
	"t5":         {T5Sizes, T5},
	"wresnet":    {WideResNetSizes, WideResNet},
	"wideresnet": {WideResNetSizes, WideResNet},
	"llama":      {LlamaSizes, Llama},
}

// UnknownFamilyError is ByName's and Sizes' rejection of a family name.
type UnknownFamilyError struct{ Family string }

func (e *UnknownFamilyError) Error() string {
	return fmt.Sprintf("model: unknown family %q (want gpt3, t5, wresnet or llama)", e.Family)
}

// UnknownSizeError is a sized builder's rejection of a size label.
type UnknownSizeError struct {
	Family, Size string
	Known        []string
}

func (e *UnknownSizeError) Error() string {
	return fmt.Sprintf("model: unknown %s size %q (known: %s)", e.Family, e.Size, strings.Join(e.Known, ", "))
}

// ByName builds the model a (family, size) pair names: gpt3, t5,
// wresnet (or wideresnet) and llama at their size labels. The error is
// an *UnknownFamilyError or an *UnknownSizeError.
func ByName(family, size string) (*Graph, error) {
	f, ok := zoo[family]
	if !ok {
		return nil, &UnknownFamilyError{Family: family}
	}
	return f.build(size)
}

// Sizes lists a family's size labels, smallest first.
func Sizes(family string) ([]string, error) {
	f, ok := zoo[family]
	if !ok {
		return nil, &UnknownFamilyError{Family: family}
	}
	return f.sizes, nil
}
