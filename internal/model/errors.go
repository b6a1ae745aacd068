package model

import (
	"fmt"
	"strconv"
)

func errInvalidArg(builder, arg string, v int) error {
	return fmt.Errorf("model: %s: invalid %s %d", builder, arg, v)
}

func itoa(v int) string { return strconv.Itoa(v) }
