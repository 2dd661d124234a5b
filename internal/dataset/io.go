package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV and gob I/O for datasets and query logs, so the cmd tools can
// exchange artifacts on disk.

// WriteCSV writes the dataset with a header row.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(d.names); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	rec := make([]string, len(d.cols))
	for i := 0; i < d.n; i++ {
		for c := range d.cols {
			rec[c] = strconv.FormatFloat(d.cols[c][i], 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a dataset written by WriteCSV (or any numeric CSV with
// a header row).
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	names, err := readHeader(cr)
	if err != nil {
		return nil, err
	}
	cols := make([][]float64, len(names))
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read row %d: %w", row, err)
		}
		if len(rec) != len(names) {
			return nil, fmt.Errorf("dataset: row %d has %d fields, want %d", row, len(rec), len(names))
		}
		for c, field := range rec {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d column %q: %w", row, names[c], err)
			}
			cols[c] = append(cols[c], v)
		}
		row++
	}
	return New(names, cols)
}

// ReadCSVHeader reads only the header line of a CSV dataset, in
// ReadCSV's dialect and with its header checks; no row is parsed.
func ReadCSVHeader(r io.Reader) ([]string, error) {
	return readHeader(csv.NewReader(r))
}

// readHeader reads the column names and rejects malformed headers
// before any row is parsed; New repeats the name checks for
// programmatically built datasets.
func readHeader(cr *csv.Reader) ([]string, error) {
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	names := append([]string(nil), header...)
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("dataset: empty name for column %d", i)
		}
	}
	return names, nil
}

// Query is one past function evaluation q = [x, l, y] (paper
// Definition 3's training example): region center X, half-side lengths
// L and the observed statistic Y.
type Query struct {
	X []float64
	Y float64
	L []float64
}

// QueryLog is the set Q of past evaluations a surrogate is trained on.
type QueryLog []Query

// Features flattens the log into the (2d)-dimensional design matrix
// [x, l] and the label vector y that surrogate training consumes.
func (q QueryLog) Features() (X [][]float64, y []float64) {
	X = make([][]float64, len(q))
	y = make([]float64, len(q))
	for i, qr := range q {
		row := make([]float64, 0, len(qr.X)+len(qr.L))
		row = append(row, qr.X...)
		row = append(row, qr.L...)
		X[i] = row
		y[i] = qr.Y
	}
	return X, y
}

// WriteCSV writes the log as x1..xd,l1..ld,y rows with a header.
func (q QueryLog) WriteCSV(w io.Writer) error {
	if len(q) == 0 {
		return fmt.Errorf("dataset: empty query log")
	}
	d := len(q[0].X)
	cw := csv.NewWriter(w)
	header := make([]string, 0, 2*d+1)
	for i := 0; i < d; i++ {
		header = append(header, fmt.Sprintf("x%d", i+1))
	}
	for i := 0; i < d; i++ {
		header = append(header, fmt.Sprintf("l%d", i+1))
	}
	header = append(header, "y")
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, 2*d+1)
	for _, qr := range q {
		if len(qr.X) != d || len(qr.L) != d {
			return fmt.Errorf("dataset: query log mixes dimensions")
		}
		for i, v := range qr.X {
			rec[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		for i, v := range qr.L {
			rec[d+i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		rec[2*d] = strconv.FormatFloat(qr.Y, 'g', -1, 64)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadQueryLogCSV reads a log written by QueryLog.WriteCSV.
func ReadQueryLogCSV(r io.Reader) (QueryLog, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read query log header: %w", err)
	}
	if len(header) < 3 || (len(header)-1)%2 != 0 {
		return nil, fmt.Errorf("dataset: query log header has %d fields, want odd count >= 3", len(header))
	}
	d := (len(header) - 1) / 2
	var log QueryLog
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read query log row %d: %w", row, err)
		}
		vals := make([]float64, len(rec))
		for i, field := range rec {
			vals[i], err = strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: query log row %d field %d: %w", row, i, err)
			}
		}
		log = append(log, Query{
			X: vals[:d],
			L: vals[d : 2*d],
			Y: vals[2*d],
		})
		row++
	}
	return log, nil
}
