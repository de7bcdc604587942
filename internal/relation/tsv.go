package relation

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// WriteTSV writes the relation as tab-separated integers under an
// attribute header line, the format ReadCSV reads with Comma '\t'.
func WriteTSV(w io.Writer, r *Relation) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(strings.Join(r.Attrs(), "\t") + "\n"); err != nil {
		return err
	}
	var row Tuple
	for i := 0; i < r.Len(); i++ {
		row = r.Tuple(i, row)
		for j, v := range row {
			if j > 0 {
				if err := bw.WriteByte('\t'); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatInt(int64(v), 10)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
