let total ?factor boxes =
  List.fold_left
    (fun acc (b : Shapes.box) -> acc +. Shapes.scale ?factor (b.width *. b.height))
    (Shapes.area (Circle 1.0) +. Shapes.area (Square 1.0))
    boxes
