package harness

type FigureSpec struct{ Name string }

var figures = []FigureSpec{{Name: "11"}, {Name: "chaos"}}

func Figures() []FigureSpec { return figures }

// Matrix is a figure's name outside cmd/: not reported here.
const Matrix = "chaos"
